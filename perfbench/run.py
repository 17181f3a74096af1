"""The vvlf benchmark: one seeded workload per run, every metric with its unit.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Runs whole rounds of seeded ops until at least ``--seconds`` of op wall time
have passed, and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, timed in CPU seconds and scaled to a
nominal host speed (see :func:`reference_cpu`); with ``--trace 1`` the first
round runs under in-memory spans and the metrics are per layer, counts included, so
they repeat exactly for a seed.  The line before the result records the run
environment and every failed op.  See README.md beside this file.
"""

import argparse
import cmath
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_SAMPLES = 7  # this process plus six fresh interpreters
SPAN_DIR = ".perfbench-out"
# One client on one thread: BLAS gets one thread too, unless the caller set
# otherwise, so that no idle BLAS worker spins and adds to the CPU time.
BLAS_SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_ENV = BLAS_SINGLE_THREAD + ("VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "VVLF_THREADS")

REF_NOMINAL_S = 0.025  # about the median reference_cpu() on the VM in README.md
REF_ITERATIONS = 3000
HOST_SAMPLES = 5  # reference_cpu() samples per host_slowness()

_CHILD_SETUP = """\
import sys, time
sys.path.insert(0, {here!r})
import workloads
workloads.build_context(workloads.load_library({root!r}))
cpu = time.process_time()
import run
print(cpu, run.host_slowness())
"""


def reference_cpu():
    """CPU seconds of a fixed loop in the library's own mix of interpreter,
    cmath and small numpy arrays.

    On a shared VM the CPU time of the same work drifts by 15-30 % from
    minute to minute.  Op and set-up times are divided by this loop's time
    taken at the same moment, relative to REF_NOMINAL_S, which takes the
    drift out.  The loop lives here, so no change to the library moves it.
    """
    import numpy as np

    grid = np.linspace(0.0, 5.0, 33)
    acc = 0j
    started = time.process_time()
    for j in range(REF_ITERATIONS):
        v = np.exp((3.5 + 0.5j) * grid - 0.7 * np.exp(grid))
        acc += complex(v.sum()) + cmath.exp(complex(j * 1e-3, 0.1)) * cmath.log(1.5 + j)
    elapsed = time.process_time() - started
    if not cmath.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite sum")
    return elapsed


def host_slowness():
    """How much slower than nominal the host runs now: the median reference
    time over REF_NOMINAL_S."""
    return statistics.median(reference_cpu() for _ in range(HOST_SAMPLES)) / REF_NOMINAL_S


def setup_sample_child():
    """Set-up CPU time of a fresh interpreter, from its start, at nominal speed."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_SETUP.format(here=HERE, root=ROOT)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    cpu, slowness = map(float, out.stdout.strip().splitlines()[-1].split())
    return cpu / slowness


def install_hooks(tracer, lib):
    """Wrap each public function at the name its calling layer looks up."""
    ex, kn, lf, mg, sf = (lib[m] for m in
                          ("experiments", "kernel", "lfunction", "modular_group", "special_functions"))
    tracer.hook(lf, "tail_integral", "tail_integral")
    tracer.hook(sf.KummerSeriesEvaluator, "taylor", "kummer_series")
    tracer.hook(kn, "kummer_reg", "kummer_quad")
    tracer.hook(sf, "polygamma", "polygamma")
    tracer.hook(sf, "log_gamma", "log_gamma")
    tracer.hook(mg.UnitaryAction, "evaluate", "evaluate", on_call=tracer.record_evaluate)
    tracer.hook(ex, "completed_L", "completed_L")
    tracer.hook(ex, "kernel_coeff", "kernel_coeff")
    tracer.hook(kn, "kernel_coeff", "kernel_coeff")
    tracer.hook(kn, "kernel_coeff_numeric", "kernel_coeff_numeric")
    tracer.hook(ex, "scan_strip", "scan_strip")
    tracer.hook(ex, "verify_identity", "verify_identity")
    tracer.hook(lib["petersson"], "inner_product", "inner_product")
    tracer.hook(ex, "scalar_basis", "scalar_basis")
    tracer.hook(lib["forms"], "load_jacobi", "load_jacobi")
    tracer.hook(lib["forms"], "theta_decompose", "theta_decompose")


def layer_metrics(tracer, records, refs):
    ops = tracer.totals(in_ops=True)
    setup = tracer.totals(in_ops=False)

    def calls(name, table=ops):
        return table.get(name, (0, 0.0))[0]

    def self_s(*names, table=ops):
        return sum(table.get(n, (0, 0.0))[1] for n in names)

    op_wall = sum(r.seconds for r in records)
    out = {}
    for layer, name, span in (
        ("special_functions", "tail_integral", "tail_integral"),
        ("special_functions", "kummer_series", "kummer_series"),
        ("special_functions", "kummer_quad", "kummer_quad"),
        ("special_functions", "polygamma", "polygamma"),
        ("special_functions", "log_gamma", "log_gamma"),
        ("modular_group", "evaluate", "evaluate"),
        ("lfunction", "completed_L", "completed_L"),
        ("kernel", "kernel_coeff", "kernel_coeff"),
        ("kernel", "kernel_coeff_numeric", "kernel_coeff_numeric"),
    ):
        out[f"{layer}.{name}.calls"] = (calls(span), "count")
        out[f"{layer}.{name}.self_s"] = (self_s(span), "s")
    kummer = calls("kummer_series") + calls("kummer_quad")
    out["special_functions.kummer.series_frac"] = (calls("kummer_series") / kummer if kummer else 0.0, "ratio")
    n_eval = calls("evaluate")
    out["modular_group.evaluate.distinct_frac"] = (len(tracer.evaluated) / n_eval if n_eval else 0.0, "ratio")
    for key in ("kernel.truncation_warnings", "kernel.formula.bound_miss", "kernel.numeric.bound_miss"):
        out[key] = (sum(r.counts.get(key, 0) for r in records), "count")
    out["petersson.inner_product.calls"] = (calls("inner_product", setup), "count")
    out["petersson.inner_product.self_s"] = (self_s("inner_product", table=setup), "s")
    out["forms.self_s"] = (self_s("scalar_basis", "load_jacobi", "theta_decompose", table=setup), "s")
    out["experiments.self_s"] = (self_s("scan_strip", "verify_identity"), "s")
    out["experiments.scan.crossings"] = (sum(r.counts.get("scan.crossings", 0) for r in records), "count")
    # Same measure as the untraced run's round1_norm_ops_per_s: the ratio is
    # the tracing overhead, with the host's drift taken out of both.
    out["trace.norm_ops_per_s"] = (len(records) / sum(nominal_op_seconds(records, refs)), "1/s")
    out["trace.coverage"] = (1.0 - self_s("op") / op_wall, "ratio")
    return out


def nominal_op_seconds(records, refs):
    """Each op's CPU time at nominal host speed.  ``refs[i]`` and
    ``refs[i + 1]`` are the reference samples just before and after op i."""
    return [r.cpu_seconds * 2 * REF_NOMINAL_S / (before + after)
            for r, before, after in zip(records, refs, refs[1:])]


def end_to_end_metrics(records, refs, setup_samples):
    times = nominal_op_seconds(records, refs)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "norm_ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def src_line_count():
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_SINGLE_THREAD:
        os.environ.setdefault(var, "1")
    tracer = Tracer() if args.trace else None
    try:
        lib = workloads.load_library(ROOT)
    except workloads.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        install_hooks(tracer, lib)
    ctx = workloads.build_context(lib)
    setup_cpu = time.process_time()
    setup_samples = [setup_cpu / host_slowness()]
    if tracer is None:
        setup_samples += [setup_sample_child() for _ in range(SETUP_SAMPLES - 1)]

    workload = workloads.WORKLOADS[args.workload]
    records = []
    refs = [reference_cpu()]  # one before the first op and one after each op
    round_times = []
    round1 = None  # ops in the first round
    for ops in workloads.rounds(args.workload, args.seed):
        first = len(records)
        for op in ops:
            records.append(workloads.run_op(workload, ctx, op, tracer, index=len(records)))
            refs.append(reference_cpu())
        round_times.append(sum(r.seconds for r in records[first:]))
        round1 = round1 or len(records)
        # Whole rounds keep the op mix the same from run to run.  A traced run
        # stops after the first, so that every count repeats exactly for a seed.
        if tracer is not None or sum(round_times) >= args.seconds:
            break

    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "threads": 1,  # scan_strip's thread pool is GIL-bound and slower; never used
        "src_py_lines": src_line_count(),
        "ops": len(records),
        "rounds": len(round_times),
        "ops_per_s_wall": len(records) / sum(round_times),
        "round1_norm_ops_per_s": round1 / sum(nominal_op_seconds(records[:round1], refs)),
        "ops_per_cpu_s": len(records) / sum(r.cpu_seconds for r in records),
        "ref_cpu_s": {"median": statistics.median(refs), "min": min(refs), "max": max(refs)},
        "setup_cpu_s": setup_cpu,
        "setup_samples_s": setup_samples,
        "failures": [
            {"op": repr(r.op), "exit": r.exit_code, "why": r.detail} for r in records if r.failed
        ],
    }
    if tracer is not None:
        tracer.uninstall()
        metrics = layer_metrics(tracer, records, refs)
        os.makedirs(os.path.join(ROOT, SPAN_DIR), exist_ok=True)
        run["spans"] = os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tracer.write(os.path.join(ROOT, run["spans"]))
    else:
        metrics = end_to_end_metrics(records, refs, setup_samples)
    print(json.dumps({"run": run}))
    result = {
        "correct": not any(r.spot_mismatch or r.exit_code == workloads.EXIT_RAISED for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
