"""Acceptance suite: ten exact desk-scale criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check is exact rational arithmetic with tolerance zero.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import lieweyl

from lieweyl import (
    I,
    KappaStarContext,
    OpMatrix,
    PBWElement,
    Scalar,
    abelian,
    bidiff_star,
    custom_algebra,
    dual_realization,
    first_order_check,
    g2_algebra,
    kappa_algebra,
    kappa_closed_realization,
    kappa_dual_closed,
    kappa_power_check,
    kappa_t_closed,
    make_context,
    omega,
    omega_inv,
    pbw_mul,
    star,
    su2_algebra,
    t_action,
    t_realization,
    tinv_action,
    validate,
    verify_appendix,
    verify_realization,
    verify_symmetrization,
    weyl_realization,
    y_action,
)
from lieweyl.realization import random_polynomial, random_rational
from normal_order import commutator


def _report(num, name, ok):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _test_algebras():
    return [
        abelian(2),
        abelian(3),
        abelian(4),
        g2_algebra(),
        su2_algebra(),
        kappa_algebra([I, Scalar(0)]),
        kappa_algebra([I, Scalar(1) / 2, Scalar(0)]),
        kappa_algebra([I, Scalar(0), Scalar(1), Scalar(0)]),
    ]


def _random_b(rng, n):
    return [Scalar(random_rational(rng).re, random_rational(rng).re) for _ in range(n)]


def _random_monomial(rng, n, max_degree):
    exps = [0] * n
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(n)] += 1
    return PBWElement.monomial(n, tuple(exps))


def test_criterion_01_structure_suite():
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        rep = validate(abelian(n))
        ok = ok and rep["antisymmetry"] and rep["jacobi"]
    for g in [g2_algebra(), su2_algebra()]:
        rep = validate(g)
        ok = ok and rep["antisymmetry"] and rep["jacobi"]
    rng = random.Random(101)
    for n in (2, 3, 4):
        for _ in range(5):
            rep = validate(kappa_algebra(_random_b(rng, n)))
            ok = ok and rep["antisymmetry"] and rep["jacobi"]
    # constructed non-Jacobi table: [X1,X2]=X3, [X1,X3]=X1 gives residual X3
    bad = custom_algebra(
        3,
        {
            (0, 1, 2): Scalar(1),
            (1, 0, 2): Scalar(-1),
            (0, 2, 0): Scalar(1),
            (2, 0, 0): Scalar(-1),
        },
    )
    rep = validate(bad)
    ok = ok and rep["antisymmetry"] and not rep["jacobi"]
    witness_ok = False
    if rep["witnesses"]:
        w = rep["witnesses"][0]
        mu, al, be, nu = (k - 1 for k in w["indices"])
        s = Scalar(0)
        for rho in range(3):
            s = s + (
                bad.c[mu][al][rho] * bad.c[rho][be][nu]
                + bad.c[al][be][rho] * bad.c[rho][mu][nu]
                + bad.c[be][mu][rho] * bad.c[rho][al][nu]
            )
        witness_ok = bool(s) and str(s) == w["residual"]
    ok = ok and witness_ok
    elapsed = time.perf_counter() - start
    _report(1, f"structure suite, {elapsed:.2f}s < 1s", ok and elapsed < 1.0)


def test_criterion_02_closure():
    start = time.perf_counter()
    ok = True
    for g in _test_algebras():
        real = weyl_realization(g, 6)
        rep = verify_realization(g, real.phi, 6)
        ok = ok and rep["pass"] and rep["order_checked"] == 5
    elapsed = time.perf_counter() - start
    _report(2, f"closure through order 5 at N=6, {elapsed:.1f}s < 30s",
            ok and elapsed < 30.0)


def test_criterion_03_symmetrization():
    rng = random.Random(103)
    ok = True
    for g in _test_algebras():
        rep = verify_symmetrization(g, 6, 5, 5, rng)
        ok = ok and rep["pass"]
    _report(3, "symmetrization m<=5, 5 random k-vectors", ok)


def test_criterion_04_duality():
    rng = random.Random(104)
    ok = True
    for g in _test_algebras():
        ctx = make_context(g, 6)
        for mu in range(g.n):
            for nu in range(g.n):
                comm = commutator(ctx.primal.xhat[mu], ctx.dual.xhat[nu])
                ok = ok and comm.truncate(5).is_zero()
        for _ in range(10):
            f = random_polynomial(rng, g.n, 3)
            h = random_polynomial(rng, g.n, 3)
            ok = ok and star(ctx, f, h, "primal") == star(ctx, h, f, "dual")
    _report(4, "duality: [xhat,yhat]=0 and f*g = g dual* f", ok)


def test_criterion_05_appendix():
    ok = True
    for g in [g2_algebra(), kappa_algebra([I, Scalar(1) / 2, Scalar(0)])]:
        rep = verify_appendix(g, 5, 5)
        ok = ok and rep["pass"]
    _report(5, "contraction/derivative identities m<=5, order 5", ok)


def test_criterion_06_kappa_cross_validation():
    order = 8
    ok = True
    for b in [
        [I, Scalar(1) / 2],
        [I, Scalar(1), Scalar(1) / 2],
        [I, Scalar(0), Scalar(1), Scalar(0)],
    ]:
        g = kappa_algebra(b)
        closed = kappa_closed_realization(g, order)
        generic = weyl_realization(g, order)
        closed_d = kappa_dual_closed(g, order)
        generic_d = dual_realization(g, order)
        for mu in range(g.n):
            for c, r in ((closed, generic), (closed_d, generic_d)):
                ok = ok and c.xhat[mu].truncate(order) == r.xhat[mu].truncate(order)
        Tc, Tci = kappa_t_closed(g, order)
        Tg, Tgi = t_realization(g, order)
        ok = ok and Tc.truncate(order) == Tg.truncate(order)
        ok = ok and Tci.truncate(order) == Tgi.truncate(order)
        ok = ok and (Tc * Tci).truncate(order) == OpMatrix.identity(g.n).truncate(order)
        ok = ok and kappa_power_check(g, order)
    # bidiff star vs generic star on 10 random pairs
    g = kappa_algebra([I, Scalar(1), Scalar(1) / 2])
    ctx = make_context(g, 6)
    kctx = KappaStarContext(g, 6)
    rng = random.Random(106)
    for _ in range(10):
        f = random_polynomial(rng, g.n, 3)
        h = random_polynomial(rng, g.n, 3)
        ok = ok and bidiff_star(kctx, f, h) == star(ctx, f, h)
        ok = ok and bidiff_star(kctx, f, h, dual=True) == star(ctx, f, h, "dual")
    _report(6, "kappa closed forms vs generic engine, order 8", ok)


def test_criterion_07_first_order_limit():
    rng = random.Random(107)
    ok = True
    for g in _test_algebras():
        ctx = make_context(g, 6)
        for _ in range(10):
            f = random_polynomial(rng, g.n, 3)
            h = random_polynomial(rng, g.n, 3)
            ok = ok and first_order_check(ctx, f, h)
    _report(7, "first-order limit is the Lie-Poisson bracket", ok)


def test_criterion_08_enveloping_actions():
    rng = random.Random(108)
    ok = True
    for g in _test_algebras():
        n = g.n
        for _ in range(20):
            X = _random_monomial(rng, n, 4)
            Y = _random_monomial(rng, n, 2)
            XY = pbw_mul(g, X, Y)
            mu = rng.randrange(n)
            nu = rng.randrange(n)
            # left-shift decomposition
            lhs = pbw_mul(g, PBWElement.generator(n, mu), X)
            rhs = PBWElement.zero(n)
            for al in range(n):
                rhs = rhs + pbw_mul(
                    g, t_action(g, mu, al, X), PBWElement.generator(n, al)
                )
            ok = ok and lhs == rhs
            # coproduct rules for T and T^{-1} (reversed legs)
            s = PBWElement.zero(n)
            si = PBWElement.zero(n)
            for al in range(n):
                s = s + pbw_mul(g, t_action(g, mu, al, X), t_action(g, al, nu, Y))
                si = si + pbw_mul(
                    g, tinv_action(g, al, nu, X), tinv_action(g, mu, al, Y)
                )
            ok = ok and s == t_action(g, mu, nu, XY)
            ok = ok and si == tinv_action(g, mu, nu, XY)
            # right-shift via T^{-1} (y_action self-checks its two routes)
            ok = ok and y_action(g, mu, X) == pbw_mul(
                g, X, PBWElement.generator(n, mu)
            )
            # inverse relations in both orders
            fwd = PBWElement.zero(n)
            bwd = PBWElement.zero(n)
            for al in range(n):
                fwd = fwd + t_action(g, mu, al, tinv_action(g, al, nu, X))
                bwd = bwd + tinv_action(g, mu, al, t_action(g, al, nu, X))
            expect = X if mu == nu else PBWElement.zero(n)
            ok = ok and fwd == expect and bwd == expect
            # commutativity of the shift actions
            a = t_action(g, mu, nu, t_action(g, nu, mu, X))
            b = t_action(g, nu, mu, t_action(g, mu, nu, X))
            ok = ok and a == b
    _report(8, "shift-operator action identities, 20 monomials deg<=4", ok)


def test_criterion_09_roundtrip_and_associativity():
    rng = random.Random(109)
    ok = True
    for g in _test_algebras():
        ctx = make_context(g, 6)
        for _ in range(5):
            f = random_polynomial(rng, g.n, 5)
            ok = ok and omega(ctx, omega_inv(ctx, f)) == f
        for _ in range(5):
            f = random_polynomial(rng, g.n, 2, terms=2)
            h = random_polynomial(rng, g.n, 2, terms=2)
            k = random_polynomial(rng, g.n, 2, terms=2)
            ok = ok and star(ctx, star(ctx, f, h), k) == star(ctx, f, star(ctx, h, k))
    _report(9, "omega round-trip deg<=5 and star associativity deg<=2", ok)


def test_criterion_10_deterministic_reports():
    args = [
        sys.executable, "-m", "lieweyl.cli",
        "verify", "g2", "--suite", "all", "--seed", "42",
        "--order", "5", "--format", "json",
    ]
    # the child imports the same lieweyl sources as this process
    src = str(Path(lieweyl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    r1 = subprocess.run(args, capture_output=True, env=env)
    r2 = subprocess.run(args, capture_output=True, env=env)
    ok = (
        r1.returncode == 0
        and r2.returncode == 0
        and r1.stdout == r2.stdout
        and json.loads(r1.stdout)["seed"] == 42
    )
    _report(10, "byte-identical seeded verification reports", ok)
