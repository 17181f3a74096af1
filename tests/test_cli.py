import os
import subprocess
import sys

import pytest

from vvlf import cli, lfunction
from conftest import DATA_DIR

SRC_DIR = os.path.dirname(os.path.dirname(cli.__file__))

JCF = os.path.join(DATA_DIR, "jacobi_k10_m1.jcf")


def run(args):
    return cli.main(args)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_selfcheck(capsys):
    assert run(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "assertions passed" in out


def test_scan_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["scan", "--k", "12", "--n", "1", "--t0", "0", "--eps", "0.05", "--points", "40"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    a = out1.read_bytes()
    b = out2.read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].startswith("sigma,")
    assert len(data) == 41


def test_scan_byte_identical_across_blas_threads(tmp_path):
    # Criterion 11 must not depend on how many threads BLAS uses.
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=SRC_DIR)
        argv = ["scan", "--k", "12", "--n", "1", "--points", "60", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "vvlf"] + argv, env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_lfun_grid(tmp_path):
    out = tmp_path / "l.csv"
    assert run(["lfun", "--k", "12", "--points", "5", "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[0] == "sigma,t,component,re,im,tail_bound"
    assert len(data) == 6


def test_lfun_grid_accuracy_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(lfunction, "_GRID_TOL", 1e-30)
    assert run(["lfun", "--k", "12", "--points", "3", "--out", str(tmp_path / "l.csv")]) == 3


def test_kernel_coeff_subcommand(tmp_path):
    out = tmp_path / "kc.csv"
    code = run(
        [
            "kernel-coeff",
            "--k", "12", "--s", "5.7", "--n", "1", "--order", "0",
            "--a-max", "60", "--n-u", "128", "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "formula" in text and "numeric" in text


def test_kernel_coeff_tolerance_failure(tmp_path):
    out = tmp_path / "kc2.csv"
    code = run(
        [
            "kernel-coeff",
            "--k", "12", "--s", "5.7", "--n", "1", "--order", "0",
            "--a-max", "60", "--n-u", "128", "--tolerance", "1e-30",
            "--out", str(out),
        ]
    )
    assert code == 3


def test_verify_identity_subcommand(tmp_path):
    out = tmp_path / "vi.csv"
    assert run(["verify-identity", "--k", "12", "--s", "4.0", "--out", str(out)]) == 0


def test_theta_roundtrip_byte_identical(tmp_path):
    dec = tmp_path / "dec.vvf"
    rec = tmp_path / "rec.jcf"
    assert run(["theta", "decompose", JCF, "--out", str(dec)]) == 0
    assert run(["theta", "reconstruct", str(dec), "--out", str(rec)]) == 0
    assert rec.read_bytes() == open(JCF, "rb").read()


def test_theta_plusmap(tmp_path):
    dec = tmp_path / "dec.vvf"
    plus = tmp_path / "plus.csv"
    run(["theta", "decompose", JCF, "--out", str(dec)])
    assert run(["theta", "plusmap", str(dec), "--out", str(plus)]) == 0
    rows = [l for l in plus.read_text().splitlines() if not l.startswith("#")][1:]
    ns = [int(r.split(",")[0]) for r in rows]
    assert all(n % 4 in (0, 3) for n in ns)


def test_theta_io_error_exit_code(tmp_path):
    assert run(["theta", "decompose", str(tmp_path / "missing.jcf"), "--out", "x"]) == 4


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 7\nk = 12\n")
    out = tmp_path / "cfg.csv"
    assert run(["--config", str(cfg), "lfun", "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 8  # header + 7 rows
    # flags win over config values
    out2 = tmp_path / "cfg2.csv"
    assert run(["--config", str(cfg), "lfun", "--points", "3", "--out", str(out2)]) == 0
    data2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert len(data2) == 4


def test_config_echo_parses_back(tmp_path):
    out = tmp_path / "echo.csv"
    run(["scan", "--k", "12", "--points", "10", "--out", str(out)])
    header = [l for l in out.read_text().splitlines() if l.startswith("# config")][0]
    fields = dict(kv.split("=") for kv in header.split()[2:])
    assert fields["k"] == "12" and fields["points"] == "10"
    assert fields["window"] == "lower"


def test_petersson_subcommand(capsys):
    assert run(["petersson", "--k", "12"]) == 0
    out = capsys.readouterr().out
    assert "1.03536" in out


def test_lfun_from_form_file(tmp_path):
    # ingest a saved vector expansion and tabulate its L-values
    src = os.path.join(DATA_DIR, "jacobi_k10_m1_decomposed.vvf")
    out = tmp_path / "vec_l.csv"
    code = run(
        [
            "lfun", "--form-file", src, "--sigma-min", "4.5", "--sigma-max", "5.0",
            "--points", "3", "--out", str(out),
        ]
    )
    assert code == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 1 + 3 * 2  # header + points x components
    assert "scan" not in data[0]


def test_scan_help_documents_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["scan", "--help"])
    assert exc.value.code == 0
    assert "el{l}_re" in capsys.readouterr().out
