"""Verification payload: pairing identities, non-vanishing scans, diagnostics.

The averaged derivative sum

    D_n(s) = sum_l b_{l,i}(n_{i,0}) / (f_l, f_l) * d^n/ds^n <L*(f_l, s), e_i>

is scanned over sigma-grids strictly inside the critical-strip windows, with
zero candidates flagged by a dip plus a bracketed sign change in both real
and imaginary parts.  verify_identity compares the kernel's first Fourier
coefficient against c_k times the same weighted sum.
"""

import cmath
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import petersson
from .forms import scalar_basis
from .kernel import KernelParams, constants, kernel_coeff
from .lfunction import completed_L, completed_L_grid
from .special_functions import polygamma


@dataclass(frozen=True)
class BasisData:
    """An orthogonal basis with Petersson norms and Gram residual."""

    label: str
    forms: tuple
    norms: tuple
    gram_offdiag: float = 0.0

    def __post_init__(self):
        if len(self.forms) != len(self.norms):
            raise ValueError("one norm per basis element required")
        if self.gram_offdiag > 1e-6:
            raise ValueError(f"basis not orthogonal enough: {self.gram_offdiag:.2e}")

    @property
    def dim_space(self):
        return len(self.forms)

    @property
    def action(self):
        return self.forms[0].action

    def b(self, l, i, n):
        """Coefficient b_{l,i}(n), l and i 1-based."""
        return self.forms[l - 1].coefficient(i, n)


def builtin_scalar_basis(k, quad=None):
    """The dim-1 scalar basis at k in {12,16,18,20,22,26} with its norm."""
    f = scalar_basis(k)
    ip = petersson.inner_product(f, f, quad)
    return BasisData(label=f"scalar-k{k}", forms=(f,), norms=(ip.value.real,))


def basis_from_forms(label, forms_list, quad=None):
    """Basis data for ingested forms; Gram off-diagonals are recorded."""
    norms = []
    off = 0.0
    for a, fa in enumerate(forms_list):
        ip = petersson.inner_product(fa, fa, quad)
        norms.append(ip.value.real)
        for fb in forms_list[a + 1 :]:
            cross = petersson.inner_product(fa, fb, quad)
            off = max(off, abs(cross.value) / abs(ip.value))
    return BasisData(label=label, forms=tuple(forms_list), norms=tuple(norms), gram_offdiag=off)


def n_zero(kappa):
    """The starting index: 1 for kappa = 0, else 0."""
    if kappa < 0 or kappa >= 1:
        raise ValueError("kappa must lie in [0, 1)")
    if kappa > 1.0 - 1e-9:
        warnings.warn(f"kappa = {kappa} is within 1e-9 of wrapping to 0", RuntimeWarning)
    return 1 if kappa < 1e-12 else 0


def basis_weights(basis, i):
    """b_{l,i}(n_{i,0}) / (f_l, f_l) for l = 1, ..., dim_space."""
    n0 = n_zero(basis.action.kappa()[i - 1])
    return [complex(basis.b(l, i, n0)) / basis.norms[l - 1] for l in range(1, basis.dim_space + 1)]


def averaged_derivative(basis, i, n, s):
    """D_n(s); reduces to b(n0)/(f,f) L*^(n) componentwise for dim-1 spaces.

    Per-point route: one completed_L per basis element with b != 0.
    """
    if basis.dim_space == 0:
        raise ValueError("empty basis")
    acc = 0.0 + 0.0j
    for w, f in zip(basis_weights(basis, i), basis.forms):
        if w == 0:
            continue
        acc += w * completed_L(f, s, order=n).value[i - 1]
    return acc


@dataclass(frozen=True)
class IdentityReport:
    k: float
    i: int
    s: complex
    order: int
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    truncation_estimate: float


def verify_identity(basis, i, s, order=0, kparams=None):
    """Kernel coefficient vs c_k-weighted L-average, with residuals."""
    action = basis.action
    if kparams is None:
        kparams = KernelParams(action=action, i=i, s=s, c_max=14, a_max=80)
    coeff = kernel_coeff(kparams, i, n_zero(action.kappa()[i - 1]), order)
    _, ck = constants(action.twok, s)
    rhs = ck * averaged_derivative(basis, i, order, s)
    absr = abs(coeff.value - rhs)
    return IdentityReport(
        k=action.weight,
        i=i,
        s=complex(s),
        order=order,
        lhs=coeff.value,
        rhs=rhs,
        abs_residual=absr,
        rel_residual=absr / max(abs(rhs), 1e-300),
        truncation_estimate=coeff.truncation_estimate,
    )


# ----------------------------------------------------------------------
# Critical-strip scans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    k: float
    i: int
    n: int
    t0: float
    eps: float
    window: str
    sigmas: np.ndarray
    values: np.ndarray          # D_n at each grid point
    per_element: np.ndarray     # shape (grid, basis size)
    min_abs: float
    argmin_sigma: float
    crossing_flags: tuple
    runtime_seconds: float
    prior_work_mode: bool = False  # n = 0 reproduces the underived average

    def csv_lines(self):
        """Deterministic CSV: sigma,t,re_D,im_D,abs_D,el{l}_re,el{l}_im,..."""
        g = self.per_element.shape[1]
        header = ["sigma", "t", "re_D", "im_D", "abs_D"]
        for l in range(1, g + 1):
            header += [f"el{l}_re", f"el{l}_im"]
        lines = [",".join(header)]
        for q, sig in enumerate(self.sigmas):
            v = self.values[q]
            row = [_num(sig), _num(self.t0), _num(v.real), _num(v.imag), _num(abs(v))]
            for l in range(g):
                e = self.per_element[q, l]
                row += [_num(e.real), _num(e.imag)]
            lines.append(",".join(row))
        return lines


def _num(x):
    return repr(float(x))


def scan_window(k, eps, window):
    if window == "lower":
        return (k - 1.0) / 2.0, k / 2.0 - eps
    if window == "mirror":
        return k / 2.0 + eps, (k + 1.0) / 2.0
    raise ValueError("window must be 'lower' or 'mirror'")


def _zero_flags(values):
    """Indices where |D| dips below 1e-3 median with Re and Im sign changes."""
    absv = np.abs(values)
    med = float(np.median(absv))
    flags = []
    for q in range(1, len(values) - 1):
        if absv[q] >= 1e-3 * med:
            continue
        re_change = values[q - 1].real * values[q + 1].real <= 0
        im_change = values[q - 1].imag * values[q + 1].imag <= 0
        if re_change and im_change:
            flags.append(q)
    return tuple(flags)


def scan_strip(basis, i, n, t0, eps, grid_size, window="lower"):
    """D_n over a sigma-grid strictly inside the requested window.

    Each basis element's L*^(n) comes from one completed_L_grid call over the
    whole grid; averaged_derivative is the per-point oracle for it.
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    k = basis.action.weight
    lo, hi = scan_window(k, eps, window)
    if hi <= lo:
        raise ValueError(f"empty window ({lo}, {hi}); reduce eps")
    started = time.monotonic()
    qs = np.arange(1, grid_size + 1)
    sigmas = lo + (hi - lo) * qs / (grid_size + 1.0)
    per_el = np.column_stack(
        [completed_L_grid(f, sigmas + 1j * t0, order=n).values[:, i - 1] for f in basis.forms]
    )
    values = np.einsum("ql,l->q", per_el, np.array(basis_weights(basis, i)))
    absv = np.abs(values)
    qmin = int(np.argmin(absv))
    return ScanReport(
        k=k,
        i=i,
        n=n,
        t0=t0,
        eps=eps,
        window=window,
        sigmas=sigmas,
        values=values,
        per_element=per_el,
        min_abs=float(absv[qmin]),
        argmin_sigma=float(sigmas[qmin]),
        crossing_flags=_zero_flags(values),
        runtime_seconds=time.monotonic() - started,
        prior_work_mode=(n == 0),
    )


# ----------------------------------------------------------------------
# Asymptotic diagnostic
# ----------------------------------------------------------------------


def _gamma_ratio_polynomials(max_order):
    """G_m with Gamma^(m)(z) = Gamma(z) G_m(psi_0, ..., psi_{m-1}).

    Monomials are exponent tuples over psi-derivatives; the recursion is
    G_{m+1} = G_m psi_0 + dG_m/dz with d(psi_j)/dz = psi_{j+1}.
    """
    polys = [{(): 1.0}]
    for _ in range(max_order):
        cur = polys[-1]
        nxt = {}

        def add(mono, coef):
            nxt[mono] = nxt.get(mono, 0.0) + coef

        for mono, coef in cur.items():
            lifted = list(mono) + [0] * (1 + 1)
            lifted[0] += 1
            add(_trim(tuple(lifted)), coef)
            for pos, e in enumerate(mono):
                if e == 0:
                    continue
                d_mono = list(mono) + [0] * (pos + 2 - len(mono))
                d_mono[pos] -= 1
                d_mono[pos + 1] += 1
                add(_trim(tuple(d_mono)), coef * e)
        polys.append(nxt)
    return polys


def _trim(mono):
    mono = list(mono)
    while mono and mono[-1] == 0:
        mono.pop()
    return tuple(mono)


def gamma_log_derivative_ratio(m, z):
    """Gamma^(m)(z) / Gamma(z) through the explicit psi-polynomial."""
    poly = _gamma_ratio_polynomials(m)[m]
    psis = [polygamma(j, z) for j in range(max((len(mono) for mono in poly), default=0))]
    acc = 0.0 + 0.0j
    for mono, coef in poly.items():
        term = complex(coef)
        for j, e in enumerate(mono):
            term *= psis[j] ** e
        acc += term
    return acc


def normalized_first_term_derivative(n, k, s, kappa=0.0, n0=1):
    """N(k,s): the n-th derivative of (2pi)^s Gamma(k-s) (n0+kappa)^{s-1}
    divided by the underived product, via the psi-polynomial expansion."""
    alpha = math.log(2.0 * math.pi * (n0 + kappa))
    acc = 0.0 + 0.0j
    for nu in range(n + 1):
        g_ratio = gamma_log_derivative_ratio(n - nu, k - s)
        acc += (
            math.comb(n, nu)
            * alpha ** nu
            * (-1.0) ** (n - nu)
            * g_ratio
        )
    return acc


@dataclass(frozen=True)
class AsymptoticDiagnostic:
    n: int
    t0: float
    delta: float
    kappa: float
    n0: int
    k_values: tuple
    n_values: tuple
    fit_coefficients: tuple     # degree-n fit in x = log(k/2 + delta - i t0)
    lead_coefficient: complex
    lead_target: float
    lead_rel_error: float
    degree_excess_ratio: float  # top coefficient of the degree-(n+1) fit, normalized

    def csv_lines(self):
        lines = ["k,x,re_N,im_N"]
        for k, v in zip(self.k_values, self.n_values):
            x = cmath.log(k / 2.0 + self.delta - 1j * self.t0)
            lines.append(f"{_num(k)},{_num(x.real)},{_num(v.real)},{_num(v.imag)}")
        return lines


def asymptotic_diagnostic(k_list, n, t0=0.0, delta=0.25, kappa=0.0, n0=1):
    """Fit N(k, k/2 - delta + i t0) against powers of log(k/2 + delta - i t0).

    The fitted polynomial must be degree n with leading coefficient near
    (-1)^n; the constant absorbs the log(2 pi (n0 + kappa))^n main term.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    ks = tuple(sorted(k_list))
    vals = []
    xs = []
    for k in ks:
        s = k / 2.0 - delta + 1j * t0
        vals.append(normalized_first_term_derivative(n, k, s, kappa, n0))
        xs.append(cmath.log(k / 2.0 + delta - 1j * t0))
    vals_a = np.array(vals)
    xs_a = np.array(xs)

    def fit(deg):
        vander = np.vander(xs_a, deg + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(vander, vals_a, rcond=None)
        return coef

    coef_n = fit(n)
    coef_n1 = fit(n + 1)
    lead = coef_n[n]
    target = (-1.0) ** n
    xbar = max(abs(x) for x in xs_a)
    excess = abs(coef_n1[n + 1]) * xbar / max(abs(coef_n1[n]), 1e-300)
    return AsymptoticDiagnostic(
        n=n,
        t0=t0,
        delta=delta,
        kappa=kappa,
        n0=n0,
        k_values=ks,
        n_values=tuple(vals),
        fit_coefficients=tuple(coef_n),
        lead_coefficient=complex(lead),
        lead_target=target,
        lead_rel_error=abs(lead - target) / abs(target),
        degree_excess_ratio=float(excess),
    )
