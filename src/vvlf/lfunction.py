"""Completed vector-valued L-functions and their s-derivatives.

The integral over (0, inf) is split at 1 and the lower piece unfolded by the
S-transformation, giving the everywhere-convergent representation

    L*(f, s) = I(f, s) + i^k U(S) I(f, k - s),
    I(f, s)  = sum_j e_j sum_n a_j(n) tail_integral(s, 2 pi (n + kappa_j), 0),

entire in s.  Derivatives replace the tail factor with its log-moment
versions, with (-1)^order on the reflected piece.

Two routes evaluate it.  ``completed_L`` is the per-point oracle: one
adaptive ``tail_integral`` per coefficient and half.  ``completed_L_grid``
serves whole s-grids: after v = e^t,

    I_j(f, s) = int_0^T e^{s t} t^order g_j(t) dt,
    g_j(t)    = sum_n a_j(n) exp(-2 pi (n + kappa_j) e^t),

so g is summed once on fixed composite Gauss-Legendre nodes and every
direct and reflected value of the grid is one exp(s t) t^order w product.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._quad import _rule
from .special_functions import _tail_cutoff, tail_integral

_MAX_ORDER = 5

# Grid route: G(n) with n nodes per panel is checked against G(2n); panels
# double in width from _GRID_FIRST_PANEL at t = 0, where the terms with large
# n + kappa decay fast, up to _GRID_PANEL.  A grid point whose discrepancy
# exceeds _GRID_TOL times its absolute integrand mass makes every panel
# bisect, at most _GRID_REFINE times.
_GRID_NODES = 20
_GRID_FIRST_PANEL = 1.0 / 64.0
_GRID_PANEL = 0.5
_GRID_TOL = 1e-13
_GRID_REFINE = 3
_GRID_BLOCK = 32  # s-points per exp(s t) block; bounds the temporaries
# Rounding: each node's exponent s t - x e^t is off by about eps (|s| t + x e^t),
# so a point's error allows 64 eps (|s| + 1) times its absolute integrand mass.
_GRID_ROUNDING = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class CompletedLValue:
    s: complex
    order: int
    value: np.ndarray
    tail_bound: float

    def __post_init__(self):
        if not np.isfinite(self.value).all():
            raise ValueError("non-finite L-value")
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")


class GridAccuracyError(ArithmeticError):
    """The grid's G(n) vs G(2n) check still failed after every refinement."""


def _check_args(f, order):
    if not f.cusp:
        raise ValueError("completed_L requires a cusp form")
    if not 0 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [0, {_MAX_ORDER}]")


def _tail_bound(f, sigma, order):
    """Bound on the n > n_max part of I(f, s) at Re s = sigma (scalar or array).

    |a| <= C (n+kappa)^p and |TI| <= 2 e^{-x}/x for x >= 2 max(1, sigma + order).
    """
    sigma = np.asarray(sigma, dtype=float)
    c = f.growth_constant()
    if c == 0:
        return np.zeros_like(sigma)
    p = f.weight / 2.0 + 1.0
    nstart = f.n_max + 1.0
    x0 = 2.0 * math.pi * nstart
    ratio = math.exp(-2.0 * math.pi) * ((nstart + 1.0) / nstart) ** p
    first = c * nstart ** p * 2.0 * math.exp(-x0) / x0
    bound = f.dim * first / (1.0 - ratio)
    return np.where(x0 > 2.0 * np.maximum(1.0, sigma + order), bound, math.inf)


def _half_series(f, s, order, tol):
    """I(f, s) with the log_order-th tail factor, plus a truncation bound."""
    kap = f.kappa()
    out = np.zeros(f.dim, dtype=complex)
    for j, comp in enumerate(f.coeffs):
        acc = 0.0 + 0.0j
        for n, val in sorted(comp.items()):
            x = 2.0 * math.pi * (n + kap[j])
            acc += complex(val) * tail_integral(s, x, order, tol=tol)
        out[j] = acc
    return out, float(_tail_bound(f, complex(s).real, order))


def completed_L(f, s, order=0, tol=1e-14):
    """L*(f, s) or its order-th s-derivative as a CompletedLValue."""
    _check_args(f, order)
    s = complex(s)
    k = f.weight
    i_direct, b1 = _half_series(f, s, order, tol)
    i_reflect, b2 = _half_series(f, k - s, order, tol)
    phase = cmath.exp(1j * math.pi * f.action.twok / 4.0)  # i^k, principal
    value = i_direct + ((-1.0) ** order) * phase * (f.action.image_S @ i_reflect)
    return CompletedLValue(s=s, order=order, value=value, tail_bound=b1 + b2)


@dataclass(frozen=True)
class CompletedLGrid:
    """L*^(order)(f, s) over an s-grid: values[q, j] at s[q], with per-point
    bounds for the n > n_max tail and for quadrature plus rounding error."""

    s: np.ndarray
    order: int
    values: np.ndarray
    tail_bound: np.ndarray
    error: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite L-value")


def _panel_edges(T, refine):
    # The last panel ends at the first lattice edge >= T, not at T, so grids
    # with nearby cutoffs share their nodes and agree bit for bit.
    edges = [0.0]
    h = _GRID_FIRST_PANEL
    while edges[-1] < T:
        edges.append(edges[-1] + h)
        h = min(2.0 * h, _GRID_PANEL)
    edges = np.array(edges)
    for _ in range(refine):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    return edges


def _nodes(edges, n):
    x, w = _rule(n)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _terms(f):
    """Per component: exponents x = 2 pi (n + kappa_j) and coefficients of the nonzero a_j(n)."""
    kap = f.kappa()
    out = []
    for j, comp in enumerate(f.coeffs):
        ns = [n for n in sorted(comp) if comp[n] != 0]
        x = 2.0 * math.pi * (np.array(ns, dtype=float) + kap[j])
        out.append((x, np.array([complex(comp[n]) for n in ns], dtype=complex)))
    return out


def _series_on_nodes(terms, t):
    """g_j(t) and the same sum over |a_j(n)|, shape (len(t), dim) each."""
    et = np.exp(t)[:, None]
    g = np.zeros((t.size, len(terms)), dtype=complex)
    mass = np.zeros((t.size, len(terms)))
    for j, (x, a) in enumerate(terms):
        decay = np.exp(-et * x)
        g[:, j] = (decay * a).sum(axis=1)
        mass[:, j] = (decay * np.abs(a)).sum(axis=1)
    return g, mass


def _grid_halves(f, terms, s, order, T, refine):
    """Direct plus reflected I on one panel set: values from G(2n), the
    G(n) discrepancy and the absolute integrand mass, per s-point."""
    k = f.weight
    reflect = ((-1.0) ** order) * cmath.exp(1j * math.pi * f.action.twok / 4.0) * f.action.image_S
    edges = _panel_edges(T, refine)
    rules = []
    for n in (_GRID_NODES, 2 * _GRID_NODES):
        t, w = _nodes(edges, n)
        g, mass = _series_on_nodes(terms, t)
        tw = (w * t ** order)[:, None]
        rules.append((t, g * tw, mass * tw))
    values = np.zeros((s.size, f.dim), dtype=complex)
    disc = np.zeros(s.size)
    mass = np.zeros(s.size)
    (tc, gc, _), (tf, gf, mf) = rules
    # einsum, not BLAS: a fixed summation order keeps output byte-identical
    # whatever the BLAS thread count.
    for lo in range(0, s.size, _GRID_BLOCK):
        blk = slice(lo, lo + _GRID_BLOCK)
        halves = []
        for z in (s[blk], k - s[blk]):
            coarse = np.einsum("qm,mj->qj", np.exp(np.outer(z, tc)), gc)
            fine = np.einsum("qm,mj->qj", np.exp(np.outer(z, tf)), gf)
            absmass = np.einsum("qm,mj->q", np.exp(np.outer(z.real, tf)), mf)
            halves.append((fine, np.linalg.norm(fine - coarse, axis=1), absmass))
        (d, dd, dm), (r, rd, rm) = halves
        values[blk] = d + np.einsum("qi,ji->qj", r, reflect)
        disc[blk] = dd + rd
        mass[blk] = dm + rm
    return values, disc, mass


def completed_L_grid(f, s_array, order=0):
    """L*^(order)(f, s) at every s of s_array as a CompletedLGrid.

    The cutoff T is _tail_cutoff at the smallest exponent and the largest
    Re s of both halves.  Each point's error is its G(n) vs G(2n)
    discrepancy plus a rounding allowance; a discrepancy above _GRID_TOL
    times the absolute integrand mass refines the panels, and raises
    GridAccuracyError once the refinements are spent.
    """
    _check_args(f, order)
    s = np.asarray(s_array, dtype=complex).ravel()
    if s.size == 0:
        raise ValueError("empty s grid")
    k = f.weight
    terms = _terms(f)
    xmin = min((x.min() for x, _ in terms if x.size), default=2.0 * math.pi)
    T = _tail_cutoff(xmin, float(max(s.real.max(), (k - s).real.max())), order)
    for refine in range(_GRID_REFINE + 1):
        values, disc, mass = _grid_halves(f, terms, s, order, T, refine)
        if (disc <= _GRID_TOL * mass).all():
            break
    else:
        worst = float(np.max(disc / mass))
        raise GridAccuracyError(
            f"grid quadrature discrepancy {worst:.2e} of the integrand mass exceeds {_GRID_TOL:.1e} "
            f"after {_GRID_REFINE} refinements"
        )
    error = disc + _GRID_ROUNDING * (np.abs(s) + 1.0) * mass
    tail = _tail_bound(f, s.real, order) + _tail_bound(f, (k - s).real, order)
    return CompletedLGrid(s=s, order=order, values=values, tail_bound=tail, error=error)


def functional_equation_residual(f, s):
    """|| L*(f,s) - i^k U(S) L*(f,k-s) || / || L*(f,s) ||."""
    s = complex(s)
    k = f.weight
    lhs = completed_L(f, s).value
    rhs = completed_L(f, k - s).value
    phase = cmath.exp(1j * math.pi * f.action.twok / 4.0)
    diff = lhs - phase * (f.action.image_S @ rhs)
    return float(np.linalg.norm(diff) / max(np.linalg.norm(lhs), 1e-300))


def partial_L(f, j, s, order=0, normalization="fractional"):
    """Component-j Dirichlet series of the stored expansion.

    ``fractional`` sums a_j(nu) (nu + kappa_j)^{-s}, matching the index-m
    partial L-functions with denominators (n/4m)^s.  ``integer`` rescales
    the terms to (4m (nu + kappa_j))^{-s} with 4m = 2 * dim, matching the
    plus-space normalization n^{-s}; the two differ by the factor (4m)^{-s}.
    Direct truncated summation of stored coefficients (no continuation).
    """
    if not 1 <= j <= f.dim:
        raise ValueError(f"component {j} out of range 1..{f.dim}")
    s = complex(s)
    kap = f.kappa()[j - 1]
    if normalization == "fractional":
        scale = 1.0
    elif normalization == "integer":
        scale = 2.0 * f.dim
    else:
        raise ValueError("normalization must be 'fractional' or 'integer'")
    acc = 0.0 + 0.0j
    for n, val in sorted(f.coeffs[j - 1].items()):
        x = (n + kap) * scale
        if x <= 0:
            continue
        term = complex(val) * cmath.exp(-s * math.log(x))
        if order:
            term *= (-math.log(x)) ** order
        acc += term
    return acc


def plus_partial_L(pf, j, s, order=0):
    """Partial sums over n = -j^2 mod 4 of the plus-space expansion."""
    if j not in (1, 2):
        raise ValueError("plus-space component must be 1 or 2")
    s = complex(s)
    acc = 0.0 + 0.0j
    for n, val in sorted(pf.coeffs.items()):
        if n <= 0 or n % 4 != (-(j * j)) % 4:
            continue
        term = complex(val) * cmath.exp(-s * math.log(n))
        if order:
            term *= (-math.log(n)) ** order
        acc += term
    return acc
