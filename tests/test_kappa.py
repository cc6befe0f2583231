import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from lieweyl import (
    I,
    InsufficientOrder,
    KappaParams,
    KappaStarContext,
    OpMatrix,
    Scalar,
    WeylOp,
    bidiff_star,
    dual_realization,
    kappa_closed_realization,
    kappa_dual_closed,
    kappa_poisson_check,
    kappa_power_check,
    kappa_t_closed,
    make_context,
    poisson_first_order,
    star,
    t_realization,
    validate,
    verify_kappa,
    weyl_realization,
)
from lieweyl import kappa
from lieweyl.poly import Polynomial
from lieweyl.realization import random_polynomial

PARAM_SETS = [
    [I, Scalar(0)],
    [I, Scalar(0), Scalar(0)],
    [I, Scalar(1), Scalar(1) / 2],
]


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_kappa_algebra_valid(b):
    rep = validate(KappaParams(b).algebra())
    assert rep["antisymmetry"] and rep["jacobi"]


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_power_formula(b):
    assert kappa_power_check(KappaParams(b), 5)


def test_power_check_reaches_the_last_power(monkeypatch):
    order = 5
    function_of_c = kappa._function_of_c

    def corrupt_last_power(p, f):
        out = function_of_c(p, f)
        if f[order] and not any(f[j] for j in range(order)):
            out.entries[0][0] = out.entries[0][0] + WeylOp.one(p.n)
        return out

    monkeypatch.setattr(kappa, "_function_of_c", corrupt_last_power)
    assert not kappa_power_check(KappaParams(PARAM_SETS[2]), order)


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_power_check_forms_each_power_once(b, monkeypatch):
    products = Counter()
    mul = OpMatrix.__mul__

    def counted(a, other):
        products[a.n] += 1
        return mul(a, other)

    monkeypatch.setattr(OpMatrix, "__mul__", counted)
    p = KappaParams(b)
    assert kappa_power_check(p, 6)
    # the 1x1 products are the series in A inside _function_of_c
    assert products[p.n] == 6


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_closed_realization_matches_generic(b):
    p = KappaParams(b)
    order = 6
    g = p.algebra()
    generic = weyl_realization(g, order)
    closed = kappa_closed_realization(p, order)
    for mu in range(p.n):
        assert closed.xhat[mu].truncate(order) == generic.xhat[mu].truncate(order)


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_closed_dual_matches_generic(b):
    p = KappaParams(b)
    order = 6
    g = p.algebra()
    generic = dual_realization(g, order)
    closed = kappa_dual_closed(p, order)
    for mu in range(p.n):
        assert closed.xhat[mu].truncate(order) == generic.xhat[mu].truncate(order)


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_closed_t_matrices(b):
    p = KappaParams(b)
    order = 6
    Tc, Tci = kappa_t_closed(p, order)
    Tg, Tgi = t_realization(p.algebra(), order)
    assert Tc.truncate(order) == Tg.truncate(order)
    assert Tci.truncate(order) == Tgi.truncate(order)
    assert (Tc * Tci).truncate(order) == OpMatrix.identity(p.n).truncate(order)


def test_closed_forms_reject_other_parameters():
    # closed forms for b3 = 1/3 must differ from the generic engine for
    # b3 = 1/2, so the comparisons above do not pass whatever the closed
    # side computes
    order = 4
    p = KappaParams([I, Scalar(1), Scalar(1) / 3])
    g = KappaParams([I, Scalar(1), Scalar(1) / 2]).algebra()
    for closed_of, generic_of in (
        (kappa_closed_realization, weyl_realization),
        (kappa_dual_closed, dual_realization),
    ):
        closed, generic = closed_of(p, order).xhat, generic_of(g, order).xhat
        assert any(
            c.truncate(order) != r.truncate(order)
            for c, r in zip(closed, generic)
        )
    for closed, generic in zip(kappa_t_closed(p, order), t_realization(g, order)):
        assert closed.truncate(order) != generic.truncate(order)


@pytest.mark.parametrize(
    "b",
    [*PARAM_SETS, [Scalar(0), Scalar(1), Scalar(0)], [I, *[Scalar(0)] * 3]],
    ids=["n2", "n3", "n3-generic", "n3-zero-first", "n4-minkowski"],
)
def test_bidiff_star_matches_generic(b):
    p = KappaParams(b)
    order = 6
    ctx = make_context(p.algebra(), order)
    kctx = KappaStarContext(p, order)
    rng = random.Random(67)
    # f = 0, a constant, and a degree-0 by degree-6 pair, then random pairs
    top = Polynomial(p.n, {(6,) + (0,) * (p.n - 1): I})
    sextic = random_polynomial(rng, p.n, 6) + top
    pairs = [
        (Polynomial.zero(p.n), random_polynomial(rng, p.n, 3)),
        (Polynomial.constant(p.n, Scalar(2) / 3), random_polynomial(rng, p.n, 3)),
        (Polynomial.constant(p.n, I), sextic),
        (sextic, Polynomial.constant(p.n, 5)),
    ]
    for _ in range(4):
        pairs.append((random_polynomial(rng, p.n, 3), random_polynomial(rng, p.n, 3)))
    for f, h in pairs:
        assert bidiff_star(kctx, f, h) == star(ctx, f, h)
        assert bidiff_star(kctx, f, h, dual=True) == star(ctx, f, h, "dual")


def test_bidiff_star_order_guard():
    p = KappaParams([I, Scalar(0)])
    rng = random.Random(2)
    f = random_polynomial(rng, 2, 3)
    with pytest.raises(InsufficientOrder):
        bidiff_star(KappaStarContext(p, 4), f, f)


def test_context_order_guard_after_build():
    # the guard holds whether or not the route's operator is already built
    kctx = KappaStarContext(KappaParams([I, Scalar(1)]), 4)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    cube = x1 * x1 * x2
    for dual in (False, True):
        with pytest.raises(InsufficientOrder):
            bidiff_star(kctx, cube, cube, dual)
        assert not bidiff_star(kctx, cube, x1, dual).is_zero()
        with pytest.raises(InsufficientOrder):
            bidiff_star(kctx, cube, cube * x2, dual)
        with pytest.raises(InsufficientOrder):
            kappa_poisson_check(kctx, cube, cube)


def test_verify_kappa_builds_one_table_per_route(monkeypatch):
    built = Counter()
    weights = kappa._weights

    def counting(order, dual):
        built[dual] += 1
        return weights(order, dual)

    monkeypatch.setattr(kappa, "_weights", counting)
    rep = verify_kappa(KappaParams([I, Scalar(1) / 2]), 6, 3, random.Random(73))
    assert rep["pass"]
    assert built == {False: 1, True: 1}


@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
def test_weight_table_depends_on_neither_b_nor_n(dual):
    tables = [KappaStarContext(KappaParams(b), 6).weights(dual) for b in PARAM_SETS]
    assert len(tables[0]) == 137
    assert all(t == tables[0] for t in tables)


@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
def test_weight_table_against_sympy(dual):
    # an independent oracle: the Taylor coefficients of the closed forms from
    # sympy, multiplied as sympy polynomials in (u, v) cut at total degree N
    sympy = pytest.importorskip("sympy")
    N = 4
    t, u, v = sympy.symbols("t u v")
    psi = t / (1 - sympy.exp(-t))
    psi_tilde = t / (sympy.exp(t) - 1)

    def at(f, var):
        return sympy.Poly(sympy.series(f, t, 0, N + 1).removeO().subs(t, var), u, v)

    def cut(poly):
        terms = {e: c for e, c in poly.as_dict().items() if sum(e) <= N}
        return sympy.Poly.from_dict(terms, u, v, domain=sympy.QQ)

    # R1 = psi_tilde(u+v)/psi_tilde(u), R2 = psi(u+v)/psi(v); dual swaps them
    left, right = (psi, psi_tilde) if dual else (psi_tilde, psi)
    r1 = cut(at(left, u + v) * at(1 / left, u))
    r2 = cut(at(right, u + v) * at(1 / right, v))
    expected = {}
    r1_m = sympy.Poly(1, u, v, domain=sympy.QQ)
    for m in range(N + 1):
        r2_k = sympy.Poly(1, u, v, domain=sympy.QQ)
        for k in range(N + 1 - m):
            for (s, t_), c in (r1_m * r2_k).as_dict().items():
                if c and s + t_ <= N - m - k:
                    expected[s, m, t_, k] = (Fraction(int(c.p), int(c.q)), 0)
            r2_k = cut(r2_k * r2)
        r1_m = cut(r1_m * r1)
    table = kappa._weights(N, dual)
    assert {key: (c.re, c.im) for key, c in table.items()} == expected


@pytest.mark.parametrize("m,p", [(0, 0), (3, 0), (3, 1), (3, 2), (4, 4), (5, 2), (5, 6)])
def test_euler_identity_scales_by_binomial(m, p):
    # sum_{|a|=p} x^a d^a F / a! = binom(m, p) F for F homogeneous of degree m,
    # the identity that turns exp(E) into the weight table
    n = 3
    rng = random.Random(97 + 10 * m + p)
    F = random_polynomial(rng, n, m).homogeneous_part(m)
    F = F + Polynomial(n, {(0, m, 0): Scalar(1, 2)})
    total = Polynomial.zero(n)
    for a in (a for a in product(range(p + 1), repeat=n) if sum(a) == p):
        h = F
        for mu, e in enumerate(a):
            for _ in range(e):
                h = h.partial(mu)
        a_fact = prod(factorial(e) for e in a)
        total = total + Polynomial(n, {a: Scalar(1) / a_fact}) * h
    assert total == F.scale(comb(m, p))


@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
def test_operator_at_higher_order_gives_same_product(dual):
    p = KappaParams([I, Scalar(1)])
    high = KappaStarContext(p, 6)
    rng = random.Random(5)
    for deg_f, deg_g in ((1, 1), (2, 1), (1, 3), (2, 3), (0, 4)):
        # the added monomials fix the degrees at deg_f and deg_g
        f = random_polynomial(rng, 2, deg_f) + Polynomial(2, {(deg_f, 0): 1})
        g = random_polynomial(rng, 2, deg_g) + Polynomial(2, {(0, deg_g): 1})
        low = KappaStarContext(p, f.degree() + g.degree())
        assert low.order < high.order
        assert bidiff_star(high, f, g, dual) == bidiff_star(low, f, g, dual)


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_lie_poisson_bracket_of_generators_is_the_closed_bracket(b):
    # {x_al, x_be} = sum_rho C_{al be rho} x_rho = b_al x_be - b_be x_al
    p = KappaParams(b)
    x = [Polynomial.variable(p.n, mu) for mu in range(p.n)]
    for al in range(p.n):
        for be in range(p.n):
            closed = x[be].scale(p.b[al]) - x[al].scale(p.b[be])
            assert poisson_first_order(p.algebra(), x[al], x[be]) == closed


def test_kappa_poisson():
    kctx = KappaStarContext(KappaParams([I, Scalar(0), Scalar(0)]), 6)
    rng = random.Random(71)
    for _ in range(4):
        f = random_polynomial(rng, 3, 3)
        h = random_polynomial(rng, 3, 3)
        assert kappa_poisson_check(kctx, f, h)


def test_verify_kappa_report():
    p = KappaParams([I, Scalar(1) / 2])
    rep = verify_kappa(p, 6, 3, random.Random(73))
    assert rep["pass"]
    assert all(c["pass"] for c in rep["checks"])


def test_params_value_semantics():
    p, q = KappaParams([I, 1]), KappaParams([I, Scalar(1)])
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != KappaParams([I, Scalar(2)])
    with pytest.raises(AttributeError):
        p.b = ()
