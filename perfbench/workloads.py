"""The vvlf benchmark's set-up, seeded op lists and per-op pass/fail rule.

Ops drive the library only through its public functions
(``experiments.scan_strip``, ``experiments.verify_identity``,
``kernel.kernel_coeff`` and ``kernel.kernel_coeff_numeric``), looked up on
the module at call time so that the tracer's hooks see them.  An op fails
when it raises, or when the matching CLI subcommand would exit with code 3
at its default tolerance.
"""

import functools
import importlib
import os
import random
import sys
import time
import warnings
from dataclasses import dataclass, field

EXIT_OK = 0
EXIT_RAISED = 1
EXIT_TOLERANCE = 3  # the CLI's numerical-tolerance exit code

SCAN_POINTS = 200  # `vvlf scan` default grid
SCAN_EPS = 0.05  # `vvlf scan` default
SPOT_POINTS = 3  # grid points re-checked per scan against averaged_derivative
SPOT_RTOL = 1e-10
IDENTITY_TOL = 1e-3  # `vvlf verify-identity --tolerance` default
XVAL_TOL = 1e-5  # `vvlf kernel-coeff --tolerance` default
XVAL_BOX = dict(c_max=6, a_max=40, n_u=128)  # about 1 s per order; CLI default is 6-8 s
XVAL_N = 1  # `vvlf kernel-coeff --n` default
XVAL_V0 = 0.9  # `vvlf kernel-coeff --v0` default
STRIP_MARGIN = 1.2  # sigma is drawn from [1.2, k - 1.2] inside the strip 1 < sigma < k - 1
IDENTITY_STRATA = 4  # identity ops per source and round, one per quarter of the sigma range
XVAL_STRATA = 4  # xval ops per action and round, one per quarter of the sigma range

# (label, weight, dimension); set-up builds exactly these.
SCALAR_WEIGHTS = (12, 16, 18, 20, 22, 26)
BASES = tuple((f"scalar-k{k}", float(k), 1) for k in SCALAR_WEIGHTS) + (("weil-k9.5", 9.5, 2),)
ACTIONS = (("trivial-k12", 12.0, 1), ("induced-k12-N3", 12.0, 4), ("weil-k9.5", 9.5, 2))


class LibraryMissing(RuntimeError):
    """The checkout holds no ``src/vvlf`` to benchmark."""


def load_library(root):
    """Import vvlf from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vvlf", "__init__.py")):
        raise LibraryMissing(f"no vvlf package under {src}")
    sys.path.insert(0, src)
    names = ("experiments", "forms", "kernel", "lfunction", "modular_group", "petersson",
             "special_functions")
    lib = {name: importlib.import_module(f"vvlf.{name}") for name in names}
    pkg = sys.modules["vvlf"]
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != os.path.abspath(src):
        raise LibraryMissing(f"vvlf was imported from {pkg.__file__}, not from {src}")
    return lib


@dataclass
class Context:
    lib: dict
    bases: dict
    actions: dict


def build_context(lib):
    """Scalar bases with Petersson norms, the theta-decomposed J_{10,1} form
    with its norm, and the Gamma0(3) induced action."""
    ex, forms, mg = lib["experiments"], lib["forms"], lib["modular_group"]
    bases = {f"scalar-k{k}": ex.builtin_scalar_basis(k) for k in SCALAR_WEIGHTS}
    jcf = os.path.join(os.path.dirname(forms.__file__), "data", "jacobi_k10_m1.jcf")
    bases["weil-k9.5"] = ex.basis_from_forms("weil-k9.5", [forms.theta_decompose(forms.load_jacobi(jcf))])
    actions = {
        "trivial-k12": bases["scalar-k12"].action,
        "induced-k12-N3": mg.induced_action_gamma0(3, 12).action,
        "weil-k9.5": bases["weil-k9.5"].action,
    }
    return Context(lib=lib, bases=bases, actions=actions)


# ----------------------------------------------------------------------
# Seeded op lists
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScanOp:
    basis: str
    i: int
    n: int
    window: str
    t0: float
    spots: tuple  # grid indices re-checked after the timed call


@dataclass(frozen=True)
class IdentityOp:
    basis: str
    i: int
    s: complex
    order: int


@dataclass(frozen=True)
class XvalOp:
    action: str
    i: int
    s: complex
    order: int


def _sources():
    """Every (basis, source component i): the Weil form has two components."""
    return [(label, k, i) for label, k, dim in BASES for i in range(1, dim + 1)]


def _scan_round(rng):
    # A scan's cost depends on n and the window (up to 25 % on k = 12), so each
    # (n, window) pair goes to equally many sources.
    sources = _sources()
    pairs = [(n, window) for n in (1, 2) for window in ("lower", "mirror")]
    pairs = pairs * (len(sources) // len(pairs))
    rng.shuffle(pairs)
    ops = [
        ScanOp(
            basis=label,
            i=i,
            n=n,
            window=window,
            t0=rng.uniform(0.0, 2.0),
            spots=tuple(sorted(rng.sample(range(SCAN_POINTS), SPOT_POINTS))),
        )
        for (label, _k, i), (n, window) in zip(sources, pairs)
    ]
    rng.shuffle(ops)
    return ops


def _balanced_orders(rng, count):
    """Derivative orders 0 and 1, once each in every pair of neighbouring
    sigma strata, so that the orders spread evenly over the strip."""
    orders = []
    for _ in range(count // 2):
        orders += rng.sample((0, 1), 2)
    return orders


def _balanced_components(rng, dim, count):
    """Components 1..dim, equally often, in seeded order."""
    comps = [q % dim + 1 for q in range(count)]
    rng.shuffle(comps)
    return comps


def _stratified_sigmas(rng, k, count):
    """One sigma from each of ``count`` equal parts of [1.2, k - 1.2]."""
    lo, hi = STRIP_MARGIN, k - STRIP_MARGIN
    return [lo + (hi - lo) * (q + rng.random()) / count for q in range(count)]


def _identity_round(rng):
    # Op cost is a step in sigma: about 250 ms where the shell sum reaches its
    # cap near the strip edges, 10-50 ms in between.  Stratified sigma keeps
    # the share of capped ops, and so the round's cost, the same across seeds.
    ops = []
    for label, k, i in _sources():
        sigmas = _stratified_sigmas(rng, k, IDENTITY_STRATA)
        for sigma, order in zip(sigmas, _balanced_orders(rng, IDENTITY_STRATA)):
            ops.append(IdentityOp(basis=label, i=i, s=complex(sigma, rng.uniform(0.0, 1.0)), order=order))
    rng.shuffle(ops)
    return ops


def _xval_round(rng):
    # An order-1 op runs both orders and takes twice as long as an order-0 op,
    # and op cost differs between components: both are balanced per action.
    ops = []
    for label, k, dim in ACTIONS:
        sigmas = _stratified_sigmas(rng, k, XVAL_STRATA)
        orders = _balanced_orders(rng, XVAL_STRATA)
        comps = _balanced_components(rng, dim, XVAL_STRATA)
        for sigma, order, i in zip(sigmas, orders, comps):
            s = complex(sigma, rng.uniform(0.0, 1.0))
            ops.append(XvalOp(action=label, i=i, s=s, order=order))
    rng.shuffle(ops)
    return ops


def rounds(workload, seed):
    """Endless stream of op rounds; the same (workload, seed) gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload].make_round
    while True:
        yield make(rng)


# ----------------------------------------------------------------------
# Calls, verdicts and spot checks
# ----------------------------------------------------------------------


@dataclass
class Verdict:
    exit_code: int
    detail: str = ""
    counts: dict = field(default_factory=dict)


def _scan_call(ctx, op):
    return ctx.lib["experiments"].scan_strip(
        ctx.bases[op.basis], op.i, op.n, op.t0, SCAN_EPS, SCAN_POINTS, window=op.window
    )


def _scan_judge(op, rep):
    flags = len(rep.crossing_flags)
    detail = f"{flags} crossing(s) flagged" if flags else ""
    return Verdict(EXIT_TOLERANCE if flags else EXIT_OK, detail, {"scan.crossings": flags})


def _scan_spot_check(ctx, op, rep):
    """Per-point averaged_derivative at the op's seeded grid points."""
    for q in op.spots:
        s = complex(rep.sigmas[q], op.t0)
        ref = ctx.lib["experiments"].averaged_derivative(ctx.bases[op.basis], op.i, op.n, s)
        got = rep.values[q]
        if abs(got - ref) > SPOT_RTOL * abs(ref):
            return f"grid point {q}: scan {got!r} vs averaged_derivative {ref!r}"
    return None


def _identity_call(ctx, op):
    return ctx.lib["experiments"].verify_identity(ctx.bases[op.basis], op.i, op.s, op.order)


def _identity_judge(op, rep):
    miss = int(rep.truncation_estimate < rep.abs_residual)
    code = EXIT_TOLERANCE if rep.rel_residual > IDENTITY_TOL else EXIT_OK
    detail = f"rel residual {rep.rel_residual:.2e}" if code else ""
    return Verdict(code, detail, {"kernel.formula.bound_miss": miss})


def _xval_call(ctx, op):
    """kernel_coeff and kernel_coeff_numeric at orders 0..order, as `vvlf kernel-coeff`."""
    kernel = ctx.lib["kernel"]
    params = kernel.KernelParams(action=ctx.actions[op.action], i=op.i, s=op.s, **XVAL_BOX)
    return [
        (kernel.kernel_coeff(params, op.i, XVAL_N, order),
         kernel.kernel_coeff_numeric(params, op.i, XVAL_N, order, v0=XVAL_V0))
        for order in range(op.order + 1)
    ]


def _xval_judge(op, pairs):
    worst = 0.0
    miss = 0
    for fml, num in pairs:
        diff = abs(fml.value - num.value)
        worst = max(worst, diff / max(abs(num.value), 1e-300))
        miss += int(diff > fml.truncation_estimate + num.truncation_estimate)
    code = EXIT_TOLERANCE if worst > XVAL_TOL else EXIT_OK
    detail = f"formula/numeric rel diff {worst:.2e}" if code else ""
    return Verdict(code, detail, {"kernel.numeric.bound_miss": miss})


@dataclass(frozen=True)
class Workload:
    make_round: object
    call: object
    judge: object
    spot_check: object = None


WORKLOADS = {
    "scan": Workload(_scan_round, _scan_call, _scan_judge, _scan_spot_check),
    "identity": Workload(_identity_round, _identity_call, _identity_judge),
    "xval": Workload(_xval_round, _xval_call, _xval_judge),
}


@dataclass
class OpRecord:
    op: object
    seconds: float  # wall time of the call
    cpu_seconds: float  # CPU time of this process during the call
    exit_code: int
    detail: str
    counts: dict
    spot_mismatch: bool = False

    @property
    def failed(self):
        return self.exit_code != EXIT_OK or self.spot_mismatch


def run_op(workload, ctx, op, tracer=None, index=0):
    """Run one op: the timed call, its verdict, then the untimed spot check.

    The call is timed twice: wall time, and this process's CPU time, which
    time spent waiting for a core on a shared host does not inflate.
    RuntimeWarnings raised during the call are counted, not printed.  With a
    tracer the call runs under op span ``index`` and the spot check untraced.
    """
    call = functools.partial(workload.call, ctx, op)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            result = call() if tracer is None else tracer.run_op(index, call)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, exc
        seconds = time.perf_counter() - started
        cpu_seconds = time.process_time() - cpu_started
    counts = {"kernel.truncation_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught)}
    if error is not None:
        return OpRecord(op, seconds, cpu_seconds, EXIT_RAISED, f"raised {error!r}", counts)
    verdict = workload.judge(op, result)
    record = OpRecord(op, seconds, cpu_seconds, verdict.exit_code, verdict.detail, dict(verdict.counts, **counts))
    if workload.spot_check is not None:
        if tracer is not None:
            tracer.active = False
        try:
            mismatch = workload.spot_check(ctx, op, result)
        finally:
            if tracer is not None:
                tracer.active = True
        if mismatch:
            record.spot_mismatch = True
            record.detail = "; ".join(filter(None, (record.detail, mismatch)))
    return record
