import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieweyl import (
    I,
    InsufficientOrder,
    KappaAlgebra,
    KappaStarContext,
    OpMatrix,
    Scalar,
    WeylOp,
    bidiff_star,
    dual_algebra,
    dual_realization,
    g2_algebra,
    kappa_algebra,
    kappa_closed_realization,
    kappa_dual_closed,
    kappa_poisson_check,
    kappa_power_check,
    kappa_t_closed,
    make_context,
    poisson_first_order,
    star,
    su2_algebra,
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
    rep = validate(kappa_algebra(b))
    assert rep["antisymmetry"] and rep["jacobi"]


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_power_formula(b):
    assert kappa_power_check(kappa_algebra(b), 5)


def test_power_check_reaches_the_last_power(monkeypatch):
    order = 5
    function_of_c = kappa._function_of_c

    def corrupt_last_power(g, f):
        out = function_of_c(g, f)
        if f[order] and not any(f[j] for j in range(order)):
            out.entries[0][0] = out.entries[0][0] + WeylOp.one(g.n)
        return out

    monkeypatch.setattr(kappa, "_function_of_c", corrupt_last_power)
    assert not kappa_power_check(kappa_algebra(PARAM_SETS[2]), order)


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_power_check_forms_each_power_once(b, monkeypatch):
    products = Counter()
    mul = OpMatrix.__mul__

    def counted(a, other):
        products[a.n] += 1
        return mul(a, other)

    monkeypatch.setattr(OpMatrix, "__mul__", counted)
    g = kappa_algebra(b)
    # the powers are the kept chain of the algebra's C: the n x n products are
    # its 5 links C^2..C^6, formed by the first check and read again by the second
    assert kappa_power_check(g, 6) and kappa_power_check(g, 6)
    # the 1x1 products are the series in A inside _function_of_c
    assert products[g.n] == 5


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_closed_realization_matches_generic(b):
    g = kappa_algebra(b)
    order = 6
    generic = weyl_realization(g, order)
    closed = kappa_closed_realization(g, order)
    for mu in range(g.n):
        assert closed.xhat[mu].truncate(order) == generic.xhat[mu].truncate(order)


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_closed_dual_matches_generic(b):
    g = kappa_algebra(b)
    order = 6
    generic = dual_realization(g, order)
    closed = kappa_dual_closed(g, order)
    for mu in range(g.n):
        assert closed.xhat[mu].truncate(order) == generic.xhat[mu].truncate(order)


@pytest.mark.parametrize("b", PARAM_SETS, ids=["n2", "n3", "n3-generic"])
def test_closed_t_matrices(b):
    g = kappa_algebra(b)
    order = 6
    Tc, Tci = kappa_t_closed(g, order)
    Tg, Tgi = t_realization(g, order)
    assert Tc.truncate(order) == Tg.truncate(order)
    assert Tci.truncate(order) == Tgi.truncate(order)
    assert (Tc * Tci).truncate(order) == OpMatrix.identity(g.n).truncate(order)


def test_closed_forms_reject_other_parameters():
    # closed forms for b3 = 1/3 must differ from the generic engine for
    # b3 = 1/2, so the comparisons above do not pass whatever the closed
    # side computes
    order = 4
    p = kappa_algebra([I, Scalar(1), Scalar(1) / 3])
    g = kappa_algebra([I, Scalar(1), Scalar(1) / 2])
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
    g = kappa_algebra(b)
    order = 6
    ctx = make_context(g, order)
    kctx = KappaStarContext(g, order)
    rng = random.Random(67)
    # f = 0, a constant, and a degree-0 by degree-6 pair, then random pairs
    top = Polynomial(g.n, {(6,) + (0,) * (g.n - 1): I})
    sextic = random_polynomial(rng, g.n, 6) + top
    pairs = [
        (Polynomial.zero(g.n), random_polynomial(rng, g.n, 3)),
        (Polynomial.constant(g.n, Scalar(2) / 3), random_polynomial(rng, g.n, 3)),
        (Polynomial.constant(g.n, I), sextic),
        (sextic, Polynomial.constant(g.n, 5)),
    ]
    for _ in range(4):
        pairs.append((random_polynomial(rng, g.n, 3), random_polynomial(rng, g.n, 3)))
    for f, h in pairs:
        assert bidiff_star(kctx, f, h) == star(ctx, f, h)
        assert bidiff_star(kctx, f, h, dual=True) == star(ctx, f, h, "dual")


@pytest.mark.parametrize(
    "g",
    [su2_algebra(), g2_algebra(), kappa_algebra([I, Scalar(1), Scalar(1, 2)])],
    ids=["su2", "g2", "kappa(1i,1,1/2)"],
)
def test_dual_route_is_the_star_of_the_dual_algebra(g):
    # left-right duality: psi_tilde(C) = psi(-C), so the dual route of g is the
    # primal route of dual_algebra(g); for kappa(b) that algebra is kappa(-b)
    order, rng = 6, random.Random(83)
    ctx, mirror = make_context(g, order), make_context(dual_algebra(g), order)
    assert ctx.dual.phi == mirror.primal.phi
    closed = isinstance(g, KappaAlgebra)
    if closed:
        kctx = KappaStarContext(g, order)
        kmirror = KappaStarContext(kappa_algebra([-x for x in g.b]), order)
    for _ in range(3):
        f, h = random_polynomial(rng, g.n, 3), random_polynomial(rng, g.n, 3)
        assert star(ctx, f, h, "dual") == star(mirror, f, h)
        if closed:
            assert bidiff_star(kctx, f, h, dual=True) == bidiff_star(kmirror, f, h)


def test_closed_star_of_the_dual_algebra_is_the_dual_route():
    # dual_algebra of kappa(b) is kappa(-b), b kept, so its closed star
    # product is the dual route of the original, closed and generic
    g = kappa_algebra([I, Scalar(1)])
    d = dual_algebra(g)
    assert isinstance(d, KappaAlgebra) and d.b == (-I, Scalar(-1)) and d.name == "kappa2~"
    order, rng = 4, random.Random(17)
    kdual, kctx = KappaStarContext(d, order), KappaStarContext(g, order)
    ctx = make_context(g, order)
    for _ in range(4):
        f, h = random_polynomial(rng, 2, 2), random_polynomial(rng, 2, 2)
        got = bidiff_star(kdual, f, h)
        assert got == star(ctx, f, h, "dual") == bidiff_star(kctx, f, h, dual=True)


def test_bidiff_star_order_guard():
    rng = random.Random(2)
    f = random_polynomial(rng, 2, 3)
    with pytest.raises(InsufficientOrder):
        bidiff_star(KappaStarContext(kappa_algebra([I, Scalar(0)]), 4), f, f)


def test_context_order_guard_after_build():
    # the guard holds whether or not the route's operator is already built
    kctx = KappaStarContext(kappa_algebra([I, Scalar(1)]), 4)
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


def test_verify_kappa_builds_both_tables_in_one_pass(monkeypatch):
    # both routes' products and the poisson check read one (primal, dual) pair
    built = Counter()
    weights = kappa._weights

    def counting(order):
        built[order] += 1
        return weights(order)

    monkeypatch.setattr(kappa, "_weights", counting)
    rep = verify_kappa(kappa_algebra([I, Scalar(1) / 2]), 6, 3, random.Random(73))
    assert rep["pass"]
    assert built == {6: 1}


def test_context_builds_the_chains_of_each_polynomial_once(monkeypatch):
    built = Counter()
    chains = kappa._a_chains

    def counting(b, f):
        built[f] += 1
        return chains(b, f)

    monkeypatch.setattr(kappa, "_a_chains", counting)
    p = kappa_algebra([I, Scalar(1), Scalar(1) / 2])
    rng = random.Random(29)
    f, g = random_polynomial(rng, 3, 3), random_polynomial(rng, 3, 3)

    def products(ctx):
        return [
            bidiff_star(ctx, f, g),
            bidiff_star(ctx, g, f),
            bidiff_star(ctx, f, g, dual=True),
            kappa_poisson_check(ctx, f, g),
        ]

    shared = products(KappaStarContext(p, 6))
    # the poisson check multiplies the nonzero homogeneous parts of f and g
    parts = {h.homogeneous_part(d) for h in (f, g) for d in range(h.degree() + 1)}
    assert built == Counter({f, g, *parts} - {Polynomial.zero(3)})
    for _ in range(2):
        assert products(KappaStarContext(p, 6)) == shared
    assert shared[-1]


_part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_gaussian = st.builds(Scalar, _part, _part)


@st.composite
def _homogeneous(draw, n, p):
    """A nonzero homogeneous polynomial of degree p in n variables."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = [0] * n
        for _ in range(p):
            exps[draw(st.integers(0, n - 1))] += 1
        terms[tuple(exps)] = draw(_gaussian.filter(bool))
    return Polynomial(n, terms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_first_order_weights_form_the_first_order_part(data):
    # A = b . d lowers the degree by one, so on homogeneous f_p, g_q the
    # entries s + t = 1 form exactly the degree-(p + q - 1) part of f_p * g_q
    n = data.draw(st.sampled_from([2, 3]), label="n")
    g = kappa_algebra(data.draw(st.lists(_gaussian, min_size=n, max_size=n), label="b"))
    p, q = data.draw(st.integers(0, 3), label="p"), data.draw(st.integers(0, 3), label="q")
    f, h = data.draw(_homogeneous(n, p), label="f"), data.draw(_homogeneous(n, q), label="g")
    ctx = KappaStarContext(g, 6)
    for dual in (False, True):
        first = kappa._bidiff(ctx, f, h, ctx.first_order_weights(dual))
        assert first == bidiff_star(ctx, f, h, dual).homogeneous_part(p + q - 1)


def test_verify_kappa_forms_two_full_products_a_trial_and_one_minus_a_chain(monkeypatch):
    # the poisson check forms first-order products only, so each trial makes
    # one full product per route; every series in -A (the closed forms and the
    # power check) reads one chain, kept in the algebra's cache, whose links
    # -A^2, -A^3, ... are each formed once
    calls = Counter()
    full = kappa.bidiff_star

    def counting(*args, **kwargs):
        calls["bidiff_star"] += 1
        return full(*args, **kwargs)

    links = []
    mul = OpMatrix.__mul__

    def counted(a, other):
        links.append(other)
        return mul(a, other)

    monkeypatch.setattr(kappa, "bidiff_star", counting)
    monkeypatch.setattr(OpMatrix, "__mul__", counted)
    # n = 3, so the 1x1 products over 3 variables are the -A chain's and the
    # weight table's (over 2 variables) are not counted
    g = kappa_algebra([I, Scalar(1), Scalar(1) / 2])
    assert verify_kappa(g, 6, 10, random.Random(41))["pass"]
    assert calls == {"bidiff_star": 20}
    chain = g.cache("kappa")["-A"]._chain
    own = [m for m in links if m.n == 1 and m.entries[0][0].n == g.n]
    assert own and all(m is chain[1] for m in own)
    assert len(own) == len(chain) - 2
    # a second power check reads the same chain
    assert kappa_power_check(g, 6)
    assert [m for m in links if m.n == 1 and m.entries[0][0].n == g.n] == own


@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
def test_weight_table_depends_on_neither_b_nor_n(dual):
    tables = [KappaStarContext(kappa_algebra(b), 6).weights(dual) for b in PARAM_SETS]
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

    # R1 = psi_tilde(u+v)/psi_tilde(u), R2 = psi(u+v)/psi(v); dual swaps them,
    # which `_weights` writes as the sign rule (-1)^(s+t) on the primal table
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
    table = kappa._weights(N)[dual]
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
    p = kappa_algebra([I, Scalar(1)])
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
    g = kappa_algebra(b)
    x = [Polynomial.variable(g.n, mu) for mu in range(g.n)]
    for al in range(g.n):
        for be in range(g.n):
            closed = x[be].scale(g.b[al]) - x[al].scale(g.b[be])
            assert poisson_first_order(g, x[al], x[be]) == closed


def test_kappa_poisson():
    kctx = KappaStarContext(kappa_algebra([I, Scalar(0), Scalar(0)]), 6)
    rng = random.Random(71)
    for _ in range(4):
        f = random_polynomial(rng, 3, 3)
        h = random_polynomial(rng, 3, 3)
        assert kappa_poisson_check(kctx, f, h)


def test_verify_kappa_report():
    rep = verify_kappa(kappa_algebra([I, Scalar(1) / 2]), 6, 3, random.Random(73))
    assert rep["pass"]
    assert all(c["pass"] for c in rep["checks"])


def test_params_value_semantics():
    # the algebra keeps its b as Scalars, and compares by its constants
    p, q = kappa_algebra([I, 1]), kappa_algebra([I, Scalar(1)])
    assert p.b == (I, Scalar(1)) and all(type(x) is Scalar for x in p.b)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != kappa_algebra([I, Scalar(2)])
    assert g2_algebra() == kappa_algebra([1, 0]) and g2_algebra().b == (1, 0)
    for attr in ("b", "c"):
        with pytest.raises(AttributeError):
            setattr(p, attr, ())
