"""Command-line front end.

Subcommands: validate, realize, star, tmatrix, verify.  Algebras are given
either as a builtin name (abelian2, abelian3, abelian4, g2, su2, kappa) or
as a path to a JSON file with 1-based structure-constant entries.  All
randomized sweeps are seeded and the seed is recorded in the report, so a
fixed invocation produces byte-identical output.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .kappa import verify_kappa
from .lie import (
    MAX_DIMENSION,
    AlgebraSpecError,
    LieAlgebra,
    _spec_int,
    abelian,
    g2_algebra,
    kappa_algebra,
    load_algebra,
    su2_algebra,
    validate,
)
from .poly import parse_polynomial
from .realization import (
    check,
    dual_realization,
    series_matrix,
    suite,
    t_realization,
    verify_appendix,
    verify_realization,
    verify_shift_relations,
    verify_symmetrization,
    weyl_realization,
)
from .scalars import Scalar
from .star import duality_check, make_context, star, verify_duality
from .weyl import InsufficientOrder, OpMatrix, WeylOp

EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2

SUITES = ("jacobi", "closure", "symmetrization", "duality", "appendix", "kappa", "all")

# the largest working order accepted from --order or a phi file; the series
# and operators grow with it, and an order in the millions would never finish
MAX_ORDER = 32


class InputError(Exception):
    pass


def _dimension(n: int) -> int:
    if not 1 <= n <= MAX_DIMENSION:
        raise InputError(f"dimension n={n} is outside 1..{MAX_DIMENSION}")
    return n


def _parse_kappa_b(text: str):
    try:
        b = [Scalar.parse(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --kappa-b value: {exc}") from exc
    _dimension(len(b))
    return b


def _resolve_algebra(name: str, kappa_b) -> LieAlgebra:
    if kappa_b is not None and name != "kappa":
        raise InputError(f"--kappa-b applies only to the builtin 'kappa', not {name!r}")
    if name.startswith("abelian") and name[7:].isdigit():
        return abelian(_dimension(int(name[7:])))
    if name == "g2":
        return g2_algebra()
    if name == "su2":
        return su2_algebra()
    if name == "kappa":
        if kappa_b is None:
            raise InputError("builtin 'kappa' needs --kappa-b \"s1,s2,...\"")
        return kappa_algebra(_parse_kappa_b(kappa_b))
    try:
        return load_algebra(name)
    except (OSError, json.JSONDecodeError, AlgebraSpecError) as exc:
        raise InputError(f"cannot load algebra {name!r}: {exc}") from exc


def _load_phi(path: str, n: int) -> OpMatrix:
    """Read a coefficient matrix: {"n", "order", "phi": OpMatrix.to_json()}.

    Every entry must be an x-free operator whose exponent vectors are n
    non-negative integers.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        if _spec_int(data["n"]) != n:
            raise InputError(f"phi file is for n={data['n']}, algebra has n={n}")
        order = _spec_int(data["order"])
        if not 1 <= order <= MAX_ORDER:
            raise InputError(f"phi file order {order} is outside 1..{MAX_ORDER}")
        # read at no order, so that a term past the order is checked before the cut
        rows = [[WeylOp.from_json(n, entry) for entry in row] for row in data["phi"]]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"cannot load phi file {path!r}: {exc}") from exc
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("phi file matrix is not n x n")
    for key in (key for row in rows for op in row for key, _, _ in op.form[1]):
        if any(type(e) is not int or e < 0 for e in key):
            raise InputError(f"phi file exponents must be {n} non-negative integers")
        if any(key[:n]):
            raise InputError("phi file entries must be x-free")
    return OpMatrix(n, rows).truncate(order)


# -- report rendering --------------------------------------------------------


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _print_report(report: dict, fmt: str):
    if fmt == "json":
        print(_dump_json(report))
        return
    head = [f"algebra={report.get('algebra', '?')}", f"order={report.get('order', '?')}"]
    if "seed" in report:
        head.append(f"seed={report['seed']}")
    print("  ".join(head))
    for suite, rep in report.get("suites", {}).items():
        print(f"[{suite}] {'PASS' if rep['pass'] else 'FAIL'}")
        for check in rep.get("checks", []):
            mark = "ok " if check["pass"] else "FAIL"
            line = f"  {mark} {check['identity']} (order {check['order_checked']})"
            if "witness" in check:
                line += f"  witness: {check['witness']}"
            print(line)
    print("RESULT:", "PASS" if report["pass"] else "FAIL")


# -- commands ----------------------------------------------------------------


def _structure_report(g: LieAlgebra) -> dict:
    """Adapt the raw structure report to the common suite shape."""
    raw = validate(g)
    checks = [
        check("antisymmetry", 0, raw["antisymmetry"]),
        check("jacobi", 0, raw["jacobi"]),
    ]
    if raw["witnesses"]:
        checks.append(check("witnesses", 0, False, raw["witnesses"][:3]))
    return suite(0, checks)


def cmd_validate(args) -> int:
    g = _resolve_algebra(args.algebra, args.kappa_b)
    rep = _structure_report(g)
    report = {
        "algebra": g.name,
        "n": g.n,
        "order": args.order,
        "suites": {"jacobi": rep},
        "pass": rep["pass"],
    }
    _print_report(report, args.format)
    return EXIT_OK if rep["pass"] else EXIT_FAIL


def cmd_realize(args) -> int:
    g = _resolve_algebra(args.algebra, args.kappa_b)
    build = weyl_realization if args.ordering == "weyl" else dual_realization
    real = build(g, args.order)
    sym = "x" if args.ordering == "weyl" else "y"
    if args.format == "json":
        print(
            _dump_json(
                {
                    "algebra": g.name,
                    "kind": real.kind,
                    "n": g.n,
                    "order": args.order,
                    "xhat": [op.to_json() for op in real.xhat],
                    "phi": real.phi.to_json(),
                }
            )
        )
    else:
        latex = args.format == "latex"
        for mu, op in enumerate(real.xhat):
            name = f"\\hat{{{sym}}}_{{{mu + 1}}}" if latex else f"{sym}hat{mu + 1}"
            print(f"{name} = {op.render(latex)}")
    return EXIT_OK


def cmd_star(args) -> int:
    g = _resolve_algebra(args.algebra, args.kappa_b)
    try:
        f = parse_polynomial(args.f, g.n)
        h = parse_polynomial(args.g, g.n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    ctx = make_context(g, args.order)
    which = "dual" if args.dual else "primal"
    out = star(ctx, f, h, which)
    ok = duality_check(ctx, f, h) if args.check_duality else True
    if args.format == "json":
        data = {"algebra": g.name, "order": args.order, "product": out.to_json()}
        if args.check_duality:
            data["duality"] = ok
        print(_dump_json(data))
    else:
        print(out.render(latex=args.format == "latex"))
        if args.check_duality:
            print("duality:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_tmatrix(args) -> int:
    g = _resolve_algebra(args.algebra, args.kappa_b)
    T, Tinv = t_realization(g, args.order)
    if args.format == "json":
        print(
            _dump_json(
                {
                    "algebra": g.name,
                    "n": g.n,
                    "order": args.order,
                    "T": T.to_json(),
                    "Tinv": Tinv.to_json(),
                }
            )
        )
        return EXIT_OK
    latex = args.format == "latex"
    for label, M in (("T", T), ("Tinv", Tinv)):
        for mu in range(g.n):
            for nu in range(g.n):
                if latex:
                    name = "\\hat{T}" if label == "T" else "\\hat{T}^{-1}"
                    name += f"_{{{mu + 1}{nu + 1}}}"
                else:
                    name = f"{label}[{mu + 1},{nu + 1}]"
                print(f"{name} = {M[mu, nu].render(latex)}")
    return EXIT_OK


def _run_suites(g, args):
    import random

    order = args.order
    suites = {}
    wanted = args.suite
    want = lambda s: wanted in (s, "all")

    if want("jacobi"):
        suites["jacobi"] = _structure_report(g)
    if want("closure"):
        if args.phi_file:
            phi = _load_phi(args.phi_file, g.n)
        else:
            phi = series_matrix(g, "psi", order)
        suites["closure"] = verify_realization(g, phi, order)
    if want("symmetrization"):
        rng = random.Random(args.seed)
        suites["symmetrization"] = verify_symmetrization(
            g, order, min(5, order), 5, rng
        )
    if want("duality"):
        rng = random.Random(args.seed)
        ctx = make_context(g, order)
        suites["duality"] = verify_duality(ctx, 10, rng)
    if want("appendix"):
        rep = verify_appendix(g, order, min(5, order))
        shifts = verify_shift_relations(g, order)
        suites["appendix"] = suite(order, rep["checks"] + shifts["checks"])
    if want("kappa"):
        if args.kappa_b is None:
            if wanted == "kappa":
                raise InputError("suite 'kappa' needs builtin 'kappa' and --kappa-b")
        else:
            # --kappa-b is given, so g is the kappa algebra that every suite shares
            rng = random.Random(args.seed)
            suites["kappa"] = verify_kappa(g, order, 10, rng)
    return suites


def cmd_verify(args) -> int:
    g = _resolve_algebra(args.algebra, args.kappa_b)
    suites = _run_suites(g, args)
    ok = all(rep["pass"] for rep in suites.values())
    report = {
        "algebra": g.name,
        "n": g.n,
        "order": args.order,
        "seed": args.seed,
        "suite": args.suite,
        "suites": suites,
        "pass": ok,
    }
    _print_report(report, args.format)
    return EXIT_OK if ok else EXIT_FAIL


# -- argument parsing ---------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lieweyl",
        description="Exact realizations of Lie-algebra-type noncommutative "
        "spaces in the truncated Weyl algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "algebra",
            help="builtin name (abelian2..abelian4, g2, su2, kappa) or JSON file",
        )
        p.add_argument(
            "--order", type=int, default=6, help=f"working order N in 1..{MAX_ORDER}"
        )
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )
        p.add_argument("--kappa-b", help='entries for builtin "kappa", e.g. "1i,0,0"')

    p = sub.add_parser("validate", help="check antisymmetry and the Jacobi identity")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("realize", help="emit the realized generators")
    common(p)
    p.add_argument("--ordering", choices=("weyl", "dual"), default="weyl")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("star", help="star-product of two polynomials")
    common(p)
    p.add_argument("f", help='left factor, e.g. "x1*x2 + 1/2*x1"')
    p.add_argument("g", help="right factor")
    p.add_argument("--dual", action="store_true", help="use the dual product")
    p.add_argument(
        "--check-duality",
        action="store_true",
        help="also verify f*g against the flipped dual product",
    )
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("tmatrix", help="emit the shift matrices T and T^{-1}")
    common(p)
    p.set_defaults(func=cmd_tmatrix)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for random sweeps")
    p.add_argument("--phi-file", help="JSON coefficient matrix for the closure suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.order <= MAX_ORDER:
        message = f"error: --order {args.order} is outside 1..{MAX_ORDER}\n"
        parser.exit(EXIT_INPUT, message)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InsufficientOrder as exc:
        print(f"error: {exc}; raise --order", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # stdout failed (a closed pipe, a full device): its buffer drains to os.devnull
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
