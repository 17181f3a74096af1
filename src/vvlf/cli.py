"""Command-line front end.

Subcommands: lfun, kernel-coeff, verify-identity, scan, petersson, theta,
selfcheck.  Every CSV artifact starts with a reproducibility header (version
plus the full effective configuration); identical configuration produces
byte-identical output.  Exit codes: 0 ok, 2 usage, 3 tolerance failure,
4 I/O failure.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__, experiments, forms, lfunction, petersson
from .kernel import KernelParams, kernel_coeff, kernel_coeff_numeric
from .modular_group import scalar_trivial

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOLERANCE = 3
EXIT_IO = 4


def _num(x):
    return repr(float(x))


def _config_echo(args, keys):
    parts = [f"{k}={getattr(args, k)}" for k in keys if getattr(args, k, None) is not None]
    return " ".join(parts)


def _write_report(path, header_lines, body_lines):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            for line in body_lines:
                fh.write(line + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _load_config_file(path):
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    return out


def _parse_complex(text):
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex number: {text}") from exc


def _load_form(args):
    if getattr(args, "form_file", None):
        return forms.load_expansion(args.form_file)
    return forms.scalar_basis(args.k)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_lfun(args):
    f = _load_form(args)
    sigmas = np.linspace(args.sigma_min, args.sigma_max, args.points)
    grid = lfunction.completed_L_grid(f, sigmas + 1j * args.t0, order=args.order)
    body = ["sigma,t,component,re,im,tail_bound"]
    for sig, row, tail in zip(sigmas, grid.values, grid.tail_bound):
        for j in range(f.dim):
            body.append(
                ",".join(
                    [
                        _num(sig),
                        _num(args.t0),
                        str(j + 1),
                        _num(row[j].real),
                        _num(row[j].imag),
                        _num(tail),
                    ]
                )
            )
    header = [
        f"vvlf {__version__} lfun",
        f"config {_config_echo(args, ('k', 'form_file', 'order', 't0', 'sigma_min', 'sigma_max', 'points'))}",
    ]
    _write_report(args.out, header, body)
    print(f"wrote {args.out} ({args.points} grid points)")
    return EXIT_OK


def cmd_kernel_coeff(args):
    action = scalar_trivial(args.k)
    params = KernelParams(
        action=action,
        i=args.i,
        s=_parse_complex(args.s),
        c_max=args.c_max,
        a_max=args.a_max,
        n_u=args.n_u,
    )
    body = ["order,method,re,im,truncation_estimate"]
    worst = 0.0
    for order in range(args.order + 1):
        fml = kernel_coeff(params, args.j, args.n, order)
        num = kernel_coeff_numeric(params, args.j, args.n, order, v0=args.v0)
        rel = abs(fml.value - num.value) / max(abs(num.value), 1e-300)
        worst = max(worst, rel)
        for res in (fml, num):
            body.append(
                f"{order},{res.method},{_num(res.value.real)},{_num(res.value.imag)},"
                f"{_num(res.truncation_estimate)}"
            )
        body.append(f"{order},relative_difference,{_num(rel)},0.0,0.0")
    header = [
        f"vvlf {__version__} kernel-coeff",
        f"config {_config_echo(args, ('k', 'i', 'j', 'n', 's', 'order', 'c_max', 'a_max', 'n_u', 'v0', 'tolerance'))}",
    ]
    _write_report(args.out, header, body)
    print(f"wrote {args.out}; worst formula/numeric relative difference {worst:.3e}")
    if worst > args.tolerance:
        print(f"tolerance failure: {worst:.3e} > {args.tolerance:.3e}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_verify_identity(args):
    basis = experiments.builtin_scalar_basis(args.k)
    params = KernelParams(
        action=basis.action, i=args.i, s=_parse_complex(args.s), c_max=args.c_max, a_max=args.a_max
    )
    rep = experiments.verify_identity(basis, args.i, _parse_complex(args.s), args.order, params)
    body = [
        "field,value",
        f"lhs_re,{_num(rep.lhs.real)}",
        f"lhs_im,{_num(rep.lhs.imag)}",
        f"rhs_re,{_num(rep.rhs.real)}",
        f"rhs_im,{_num(rep.rhs.imag)}",
        f"abs_residual,{_num(rep.abs_residual)}",
        f"rel_residual,{_num(rep.rel_residual)}",
        f"truncation_estimate,{_num(rep.truncation_estimate)}",
    ]
    header = [
        f"vvlf {__version__} verify-identity",
        f"config {_config_echo(args, ('k', 'i', 's', 'order', 'c_max', 'a_max', 'tolerance'))}",
    ]
    _write_report(args.out, header, body)
    print(f"identity residual {rep.rel_residual:.3e} (lhs {rep.lhs:.6g}, rhs {rep.rhs:.6g})")
    if rep.rel_residual > args.tolerance:
        print(f"tolerance failure: {rep.rel_residual:.3e} > {args.tolerance:.3e}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_scan(args):
    basis = experiments.builtin_scalar_basis(args.k)
    rep = experiments.scan_strip(
        basis, args.i, args.n, args.t0, args.eps, args.points, window=args.window
    )
    header = [
        f"vvlf {__version__} scan",
        f"config {_config_echo(args, ('k', 'i', 'n', 't0', 'eps', 'points', 'window'))}",
        f"min_abs_D {_num(rep.min_abs)} at sigma {_num(rep.argmin_sigma)}",
        f"crossing_flags {len(rep.crossing_flags)}",
    ]
    _write_report(args.out, header, rep.csv_lines())
    print(
        f"wrote {args.out}; min |D_{args.n}| = {rep.min_abs:.6e} at sigma = "
        f"{rep.argmin_sigma:.6f}; crossings flagged: {len(rep.crossing_flags)}"
    )
    return EXIT_OK if not rep.crossing_flags else EXIT_TOLERANCE


def cmd_petersson(args):
    f = forms.scalar_basis(args.k)
    spec = petersson.QuadratureSpec(v_max=args.v_max, n_u=args.n_u, n_v=args.n_v)
    res = petersson.inner_product(f, f, spec)
    print(f"(f, f) at k={args.k}: {res.value.real!r} (error estimate {res.error:.3e})")
    return EXIT_OK


def cmd_theta(args):
    try:
        if args.mode == "decompose":
            jac = forms.load_jacobi(args.input)
            vec = forms.theta_decompose(jac)
            forms.save_expansion(vec, args.out)
            print(f"wrote {args.out} ({vec.dim} components, weight {vec.weight})")
        elif args.mode == "reconstruct":
            vec = forms.load_expansion(args.input)
            jac = forms.jacobi_reconstruct(vec, vec.dim // 2)
            forms.save_jacobi(jac, args.out)
            print(f"wrote {args.out} (index {jac.m}, weight {jac.k})")
        else:  # plusmap
            vec = forms.load_expansion(args.input)
            pf = forms.plus_space_map(vec)
            body = ["n,re,im"]
            for n in sorted(pf.coeffs):
                v = complex(pf.coeffs[n])
                body.append(f"{n},{_num(v.real)},{_num(v.imag)}")
            _write_report(args.out, [f"vvlf {__version__} theta plusmap"], body)
            print(f"wrote {args.out} ({len(pf.coeffs)} coefficients)")
    except (forms.CoefficientFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_selfcheck(args):
    checks = 0
    failures = []

    def ok(name, cond):
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(name)

    from . import special_functions as sf

    ok("gamma factorial", abs(sf.gamma(5) - 24) < 1e-10)
    ok("gamma reflection", abs(sf.gamma(0.3) * sf.gamma(0.7) - np.pi / np.sin(0.3 * np.pi)) < 1e-10)
    ok("digamma recurrence", abs(sf.polygamma(0, 4.2) - sf.polygamma(0, 3.2) - 1 / 3.2) < 1e-12)
    delta = forms.delta_expansion(30)
    ok("tau(2)", delta.coefficient(1, 2) == -24)
    ok("tau(3)", delta.coefficient(1, 3) == 252)
    fe = lfunction.functional_equation_residual(delta, 4 + 2j)
    ok("functional equation", fe < 1e-9)
    d1 = lfunction.completed_L(delta, 6.0, order=1)
    l0 = lfunction.completed_L(delta, 6.0)
    ok("derivative zero", abs(d1.value[0]) < 1e-9 * abs(l0.value[0]))
    ip = petersson.inner_product(delta, delta)
    ok("petersson positive", ip.value.real > 0)
    jac_path = os.path.join(os.path.dirname(forms.__file__), "data", "jacobi_k10_m1.jcf")
    jac = forms.load_jacobi(jac_path)
    vec = forms.theta_decompose(jac)
    ok("theta roundtrip", forms.jacobi_reconstruct(vec, 1).table == jac.table)
    pf = forms.plus_space_map(vec)
    ok("plus support", all(n % 4 in (0, 3) for n in pf.coeffs))
    print(f"selfcheck: {checks - len(failures)}/{checks} assertions passed")
    if failures:
        print("failed: " + ", ".join(failures), file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vvlf",
        description="Vector-valued modular form L-function toolkit",
    )
    parser.add_argument("--config", help="key=value config file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lfun", help="tabulate completed L-values and derivatives")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--form-file", dest="form_file")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--sigma-min", dest="sigma_min", type=float, default=4.0)
    p.add_argument("--sigma-max", dest="sigma_max", type=float, default=8.0)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--out", default="lfun.csv")
    p.set_defaults(func=cmd_lfun)

    p = sub.add_parser("kernel-coeff", help="formula vs numeric kernel coefficients")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--s", default="4.0")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--c-max", dest="c_max", type=int, default=12)
    p.add_argument("--a-max", dest="a_max", type=int, default=100)
    p.add_argument("--n-u", dest="n_u", type=int, default=256)
    p.add_argument("--v0", type=float, default=0.9)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--out", default="kernel_coeff.csv")
    p.set_defaults(func=cmd_kernel_coeff)

    p = sub.add_parser("verify-identity", help="kernel coefficient vs L-average")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--s", default="4.0")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--c-max", dest="c_max", type=int, default=14)
    p.add_argument("--a-max", dest="a_max", type=int, default=80)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--out", default="identity.csv")
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser(
        "scan",
        help="non-vanishing scan over a strip window",
        epilog=(
            "CSV columns, in order: sigma, t, re_D, im_D, abs_D, then "
            "el{l}_re, el{l}_im for each basis element l = 1, 2, ..."
        ),
    )
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--window", choices=("lower", "mirror"), default="lower")
    p.add_argument("--out", default="scan.csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("petersson", help="Petersson norm of a built-in form")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--v-max", dest="v_max", type=float, default=8.0)
    p.add_argument("--n-u", dest="n_u", type=int, default=48)
    p.add_argument("--n-v", dest="n_v", type=int, default=24)
    p.set_defaults(func=cmd_petersson)

    p = sub.add_parser("theta", help="Jacobi theta decomposition utilities")
    p.add_argument("mode", choices=("decompose", "reconstruct", "plusmap"))
    p.add_argument("input")
    p.add_argument("--out", default="theta_out.txt")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suites")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    if args.config:
        file_vals = _load_config_file(args.config)
        for key, val in file_vals.items():
            if hasattr(args, key) and f"--{key.replace('_', '-')}" not in argv:
                current = getattr(args, key)
                try:
                    setattr(args, key, type(current)(val) if current is not None else val)
                except (TypeError, ValueError):
                    setattr(args, key, val)
    try:
        return args.func(args)
    except lfunction.GridAccuracyError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
