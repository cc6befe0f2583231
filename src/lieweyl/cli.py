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
import sys

from .kappa import KappaParams, verify_kappa
from .lie import (
    AlgebraSpecError,
    LieAlgebra,
    abelian,
    g2_algebra,
    kappa_algebra,
    load_algebra,
    su2_algebra,
    validate,
)
from .poly import parse_polynomial
from .realization import (
    dual_realization,
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


class InputError(Exception):
    pass


def _parse_kappa_b(text: str):
    try:
        return [Scalar.parse(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --kappa-b value: {exc}") from exc


def _resolve_algebra(name: str, kappa_b) -> LieAlgebra:
    if name.startswith("abelian") and name[7:].isdigit():
        return abelian(int(name[7:]))
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
    """Read a coefficient matrix: {"n", "order", "phi": OpMatrix.to_json()}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if int(data["n"]) != n:
            raise InputError(f"phi file is for n={data['n']}, algebra has n={n}")
        order = int(data["order"])
        rows = [
            [WeylOp.from_json(n, entry, valid_order=order) for entry in row]
            for row in data["phi"]
        ]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"cannot load phi file {path!r}: {exc}") from exc
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("phi file matrix is not n x n")
    return OpMatrix(n, rows)


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
            if "witness" in check and check["witness"] is not None:
                line += f"  witness: {check['witness']}"
            print(line)
    print("RESULT:", "PASS" if report["pass"] else "FAIL")


# -- commands ----------------------------------------------------------------


def _structure_report(g: LieAlgebra) -> dict:
    """Adapt the raw structure report to the common suite shape."""
    raw = validate(g)
    checks = [
        {"identity": "antisymmetry", "order_checked": 0, "pass": raw["antisymmetry"]},
        {"identity": "jacobi", "order_checked": 0, "pass": raw["jacobi"]},
    ]
    if raw["witnesses"]:
        checks.append(
            {
                "identity": "witnesses",
                "order_checked": 0,
                "pass": False,
                "witness": raw["witnesses"][:3],
            }
        )
    ok = raw["antisymmetry"] and raw["jacobi"]
    return {"pass": ok, "order_checked": 0, "checks": checks}


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


def _build_realization(g, ordering, order):
    if ordering == "weyl":
        return weyl_realization(g, order)
    if ordering == "dual":
        return dual_realization(g, order)
    raise InputError(f"unknown ordering {ordering!r}")


def cmd_realize(args) -> int:
    g = _resolve_algebra(args.algebra, args.kappa_b)
    real = _build_realization(g, args.ordering, args.order)
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
    if args.format == "json":
        data = {"algebra": g.name, "order": args.order, "product": out.to_json()}
        if args.check_duality:
            data["duality"] = duality_check(ctx, f, h)
        print(_dump_json(data))
        if args.check_duality and not data["duality"]:
            return EXIT_FAIL
        return EXIT_OK
    print(out.render(latex=args.format == "latex"))
    if args.check_duality:
        ok = duality_check(ctx, f, h)
        print("duality:", "PASS" if ok else "FAIL")
        if not ok:
            return EXIT_FAIL
    return EXIT_OK


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
            phi = weyl_realization(g, order).phi
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
        rep["checks"].extend(shifts["checks"])
        rep["pass"] = rep["pass"] and shifts["pass"]
        suites["appendix"] = rep
    if want("kappa"):
        if args.kappa_b is None:
            if wanted == "kappa":
                raise InputError("suite 'kappa' needs --kappa-b")
        else:
            rng = random.Random(args.seed)
            p = KappaParams(_parse_kappa_b(args.kappa_b))
            suites["kappa"] = verify_kappa(p, order, 10, rng)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieweyl",
        description="Exact realizations of Lie-algebra-type noncommutative "
        "spaces in the truncated Weyl algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_order=True):
        p.add_argument(
            "algebra",
            help="builtin name (abelian2..abelian4, g2, su2, kappa) or JSON file",
        )
        if needs_order:
            p.add_argument("--order", type=int, default=6, help="working order N >= 1")
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
    if getattr(args, "order", 1) < 1:
        parser.exit(EXIT_INPUT, "error: --order must be >= 1\n")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InsufficientOrder as exc:
        print(f"error: {exc}; raise --order", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
