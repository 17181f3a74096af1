"""Tests of the benchmark itself: seeded op lists, the failure rule, the tracer.

    python3 -m pytest perfbench
"""

import itertools
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return wl.load_library(os.path.dirname(HERE))


def first_rounds(name, seed, count=3):
    return list(itertools.islice(wl.rounds(name, seed), count))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_op_list(name):
    assert first_rounds(name, 7) == first_rounds(name, 7)
    assert first_rounds(name, 7) != first_rounds(name, 8)


def test_rounds_are_balanced():
    weights = {label: k for label, k, _ in wl.BASES}
    sources = sorted((label, i) for label, _, dim in wl.BASES for i in range(1, dim + 1))
    for ops in first_rounds("scan", 3):
        assert sorted((op.basis, op.i) for op in ops) == sources
        assert sorted((op.n, op.window) for op in ops) == sorted(
            [(n, window) for n in (1, 2) for window in ("lower", "mirror")] * 2)
    for ops in first_rounds("identity", 3):
        for label, i in sources:
            lo, hi = wl.STRIP_MARGIN, weights[label] - wl.STRIP_MARGIN
            order_of = {int((op.s.real - lo) / (hi - lo) * wl.IDENTITY_STRATA): op.order
                        for op in ops if (op.basis, op.i) == (label, i)}
            assert sorted(order_of) == list(range(wl.IDENTITY_STRATA))
            # each pair of neighbouring strata holds one op of each order
            assert all(order_of[q] != order_of[q + 1] for q in range(0, wl.IDENTITY_STRATA, 2))
        assert sum(op.order for op in ops) == len(ops) // 2
    for ops in first_rounds("xval", 3):
        for label, _, dim in wl.ACTIONS:
            mine = [op for op in ops if op.action == label]
            assert sorted(op.order for op in mine) == [0, 0, 1, 1]
            assert sorted(op.i for op in mine) == sorted(q % dim + 1 for q in range(wl.XVAL_STRATA))


def test_static_tables_match_setup(lib):
    ctx = wl.build_context(lib)
    assert {label: (b.action.weight, b.action.dim) for label, b in ctx.bases.items()} == {
        label: (k, dim) for label, k, dim in wl.BASES
    }
    assert {label: (a.weight, a.dim) for label, a in ctx.actions.items()} == {
        label: (k, dim) for label, k, dim in wl.ACTIONS
    }


def _stub(call, judge=None, spot_check=None):
    return wl.Workload(make_round=None, call=call, judge=judge or (lambda op, res: wl.Verdict(res)),
                       spot_check=spot_check)


def test_raising_op_is_failed():
    def boom(ctx, op):
        raise ValueError("s outside the convergence strip")

    rec = wl.run_op(_stub(boom), None, "op")
    assert rec.failed and rec.exit_code == wl.EXIT_RAISED and "ValueError" in rec.detail


def test_raising_op_is_failed_when_traced():
    tracer = Tracer()

    def boom(ctx, op):
        raise ZeroDivisionError

    rec = wl.run_op(_stub(boom), None, "op", tracer, index=0)
    assert rec.failed and tracer.totals(in_ops=True)["op"][0] == 1 and not tracer._stack


def test_exit_code_three_is_failed():
    assert wl.run_op(_stub(lambda ctx, op: wl.EXIT_TOLERANCE), None, "op").failed
    assert not wl.run_op(_stub(lambda ctx, op: wl.EXIT_OK), None, "op").failed


def test_spot_check_mismatch_is_failed():
    rec = wl.run_op(_stub(lambda ctx, op: wl.EXIT_OK, spot_check=lambda ctx, op, res: "off"), None, "op")
    assert rec.failed and rec.exit_code == wl.EXIT_OK and rec.detail == "off"


def test_runtime_warnings_are_counted():
    import warnings

    def warns(ctx, op):
        warnings.warn("truncation estimate exceeds tolerance", RuntimeWarning)
        warnings.warn("truncation estimate exceeds tolerance", RuntimeWarning)
        return wl.EXIT_OK

    assert wl.run_op(_stub(warns), None, "op").counts["kernel.truncation_warnings"] == 2


def test_judges_follow_cli_tolerances():
    def ident(rel):
        return types.SimpleNamespace(rel_residual=rel, abs_residual=rel, truncation_estimate=1.0)

    assert wl._identity_judge(None, ident(2e-3)).exit_code == wl.EXIT_TOLERANCE
    assert wl._identity_judge(None, ident(5e-4)).exit_code == wl.EXIT_OK
    scan = types.SimpleNamespace(crossing_flags=(17,))
    assert wl._scan_judge(None, scan).exit_code == wl.EXIT_TOLERANCE

    def coeff(value):
        return types.SimpleNamespace(value=value, truncation_estimate=0.0)

    assert wl._xval_judge(None, [(coeff(1.0), coeff(1.0 + 2e-5))]).exit_code == wl.EXIT_TOLERANCE
    assert wl._xval_judge(None, [(coeff(1.0), coeff(1.0 + 5e-6))]).exit_code == wl.EXIT_OK


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("s", ["1.3+0.5j", "6+0.5j"])
def test_identity_verdict_matches_cli_exit_code(lib, tmp_path, s):
    from vvlf import cli

    code = cli.main(["verify-identity", "--k", "12", "--s", s, "--out", str(tmp_path / "id.csv")])
    ctx = wl.build_context(lib)
    rec = wl.run_op(wl.WORKLOADS["identity"], ctx, wl.IdentityOp("scalar-k12", 1, complex(s), 0))
    assert rec.exit_code == code


def test_tracer_self_time_and_restore():
    ns = types.SimpleNamespace(inner=lambda: sum(range(1000)))
    ns.outer = lambda: ns.inner() + ns.inner()
    original = ns.inner
    tracer = Tracer()
    tracer.hook(ns, "inner", "inner")
    tracer.hook(ns, "outer", "outer")
    tracer.run_op(0, ns.outer)
    tracer.uninstall()
    totals = tracer.totals(in_ops=True)
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    op_span = next(rec for rec in tracer.spans if tracer.names[rec[1]] == "op")
    assert sum(t[1] for t in totals.values()) == pytest.approx(op_span[4] - op_span[3])
    assert ns.inner is original


def test_metric_names_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    record = wl.OpRecord(op=None, seconds=1.0, cpu_seconds=1.0, exit_code=wl.EXIT_OK, detail="",
                         counts={})
    tracer = Tracer()
    tracer.run_op(0, lambda: None)
    refs = [run.REF_NOMINAL_S] * 2
    layer = {name: unit for name, (_, unit) in run.layer_metrics(tracer, [record], refs).items()}
    assert layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = {name: unit for name, (_, unit) in run.end_to_end_metrics([record], refs, [0.5]).items()}
    assert e2e == {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_op_times_scale_with_reference_around_each_op():
    import run

    records = [wl.OpRecord(op=None, seconds=9.0, cpu_seconds=cpu, exit_code=wl.EXIT_OK, detail="", counts={})
               for cpu in (1.0, 3.0)]
    nominal = run.REF_NOMINAL_S
    # The host runs at half speed around the first op and at nominal speed
    # after the second.
    times = run.nominal_op_seconds(records, [2 * nominal, 2 * nominal, nominal])
    assert times == pytest.approx([0.5, 3.0 / 1.5])
