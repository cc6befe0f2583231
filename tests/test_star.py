import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from lieweyl import (
    I,
    InsufficientOrder,
    OpMatrix,
    PBWElement,
    Polynomial,
    Scalar,
    StarContext,
    WeylOp,
    dual_algebra,
    duality_check,
    first_order_check,
    g2_algebra,
    kappa_algebra,
    load_algebra,
    make_context,
    omega,
    omega_inv,
    parse_polynomial,
    pbw_mul,
    poisson_first_order,
    realization_from_phi,
    series_matrix,
    star,
    su2_algebra,
    t_action,
    verify_duality,
    y_action,
)
from lieweyl import pbw, poly
from lieweyl.realization import random_polynomial
from lieweyl.star import first_order_matches
from conftest import random_monomial, standard_algebras
from normal_order import constants, mi_unit, pbw_product


def test_g2_star_examples():
    ctx = make_context(g2_algebra(), 4)
    x1 = parse_polynomial("x1", 2)
    x2 = parse_polynomial("x2", 2)
    one = Polynomial.one(2)
    assert star(ctx, x1, x2) == parse_polynomial("x1*x2 + 1/2*x2", 2)
    assert star(ctx, x2, x1) == parse_polynomial("x1*x2 - 1/2*x2", 2)
    assert star(ctx, x1, one) == x1
    assert star(ctx, one, x2) == x2
    # star-commutator of generators reproduces the bracket
    assert star(ctx, x1, x2) - star(ctx, x2, x1) == x2


def test_omega_on_generators_is_identity():
    for g in standard_algebras():
        ctx = make_context(g, 3)
        for mu in range(g.n):
            X = PBWElement.generator(g.n, mu)
            assert omega(ctx, X) == Polynomial.variable(g.n, mu)


def test_omega_roundtrip():
    rng = random.Random(41)
    for g in standard_algebras():
        ctx = make_context(g, 5)
        for _ in range(5):
            f = random_polynomial(rng, g.n, 5)
            assert omega(ctx, omega_inv(ctx, f)) == f
            assert omega(ctx, omega_inv(ctx, f, "dual"), "dual") == f


def _gaussian(rng):
    re, im = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
    return Scalar(re, im)


@pytest.mark.parametrize(
    "g",
    [su2_algebra(), g2_algebra(), kappa_algebra([I, Scalar(1), Scalar(Fraction(1, 2))])],
    ids=["su2", "g2", "kappa(1i,1,1/2)"],
)
@pytest.mark.parametrize("which", ["primal", "dual"])
def test_omega_inv_inverts_omega_on_pbw_elements(g, which):
    rng = random.Random(67)
    ctx = make_context(g, 5)
    for _ in range(6):
        X = PBWElement.zero(g.n)
        for _ in range(4):
            X = X + random_monomial(rng, g.n, 5).scale(_gaussian(rng))
        assert omega_inv(ctx, omega(ctx, X, which), which) == X


class _CountingDict(dict):
    """A memo that counts how often each key is written."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def test_omega_inv_forms_each_monomial_inverse_once():
    # the 20 monomials of degree <= 3 in three variables, lifted twice on each
    # route: every inverse is formed once and memoized, 40 in all
    ctx = make_context(su2_algebra(), 6)
    ctx._omega_cache = _CountingDict()
    every = Polynomial(3, {a: Scalar(1) for a in product(range(4), repeat=3) if sum(a) <= 3})
    for _ in range(2):
        for which in ("primal", "dual"):
            omega_inv(ctx, every, which)
            star(ctx, every, every, which)
    inverses = {k: v for k, v in ctx._omega_cache.writes.items() if k[0] == "inv"}
    assert len(inverses) == 40 and set(inverses.values()) == {1}


def _counting(calls, name, fn):
    """fn, counting each call in calls[name]."""
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def test_warm_star_reads_only_its_operands_and_forms_no_scalar_product(monkeypatch):
    # on a warm context f, h, their lifts, the lifted product and every memo
    # entry are read as their stored forms: no Scalar is read into numerators,
    # none is formed from them, and no Scalar product is formed
    ctx = make_context(kappa_algebra([I, Scalar(1), Scalar(1, 2)]), 6)
    f = parse_polynomial("(1/2+1i)*x1*x2 + x3^2 - 1/3*x1", 3)
    h = parse_polynomial("x2*x3 + 2i*x1 + 5", 3)
    first = star(ctx, f, h)
    calls = Counter()

    def read(fn):
        # the empty maps that stand for a result type read no Scalar
        def wrapper(coeffs):
            calls["numerators"] += bool(coeffs)
            return fn(coeffs)
        return wrapper

    for module in (poly, pbw):
        monkeypatch.setattr(module, "numerators", read(module.numerators))
    monkeypatch.setattr(poly, "from_numerators",
                        _counting(calls, "from_numerators", poly.from_numerators))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, name, _counting(calls, name, getattr(Scalar, name)))
    assert star(ctx, f, h).form == first.form
    assert +calls == Counter()


def test_warm_star_and_y_action_call_no_memoized_recursion(monkeypatch):
    # on a warm context every memo hit is read in the loops of omega_inv,
    # pbw_mul, omega and y_action: none of the recursions that fill the memos
    # is called
    ctx = make_context(kappa_algebra([I, Scalar(1), Scalar(1, 2)]), 6)
    f = parse_polynomial("(1/2+1i)*x1*x2 + x3^2 - 1/3*x1", 3)
    h = parse_polynomial("x2*x3 + 2i*x1 + 5", 3)

    def sweep():
        A = omega_inv(ctx, f)
        return (star(ctx, f, h), star(ctx, h, f, "dual"),
                *(y_action(ctx.algebra, mu, A) for mu in range(3)))

    star_module = sys.modules["lieweyl.star"]
    names = [(pbw, "_straighten"), (pbw, "_shift_mono"),
             (star_module, "_omega_mono"), (star_module, "_omega_inv_mono")]
    calls = Counter()
    for module, name in names:
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    first = sweep()
    assert set(calls) == {name for _, name in names}  # the counters are live
    calls.clear()
    assert sweep() == first
    assert +calls == Counter()


def test_contexts_of_one_algebra_share_its_dual():
    g = su2_algebra()
    a, b = make_context(g, 4), make_context(g, 6)
    assert a.dual_alg is b.dual_alg is dual_algebra(g)
    assert dual_algebra(g).c == tuple(
        tuple(tuple(-x for x in row) for row in m) for m in g.c)
    # kept one way only: the dual's own dual is a new algebra, equal to g
    assert dual_algebra(a.dual_alg) == g and dual_algebra(a.dual_alg) is not g


def _memo_references(g):
    """Each PBW memo entry of g recomputed over Fraction pairs: a word as the
    product of its letters by `pbw_product`, a shift action by its peeling
    recursion with `pbw_product` for the left factor, and y_action's shift
    route as sum_al X_al (T^{-1}_{mu al} |> X^a)."""
    c, n = constants(g), g.n
    one = {(0,) * n: (1, 0)}

    def word(w):
        out = one
        for mu in w:
            out = pbw_product(c, out, {mi_unit(n, mu): (1, 0)})
        return out

    @cache
    def shift(inverse, mu, nu, exps):
        if not any(exps):
            return one if mu == nu else {}
        al = next(i for i, e in enumerate(exps) if e)
        rest = exps[:al] + (exps[al] - 1,) + exps[al + 1 :]
        out = dict(pbw_product(c, {mi_unit(n, al): (1, 0)}, shift(inverse, mu, nu, rest)))
        sign = -1 if inverse else 1
        for rho in range(n):
            re, im = c[rho][al][nu] if inverse else c[mu][al][rho]
            inner = (mu, rho) if inverse else (rho, nu)
            for k, (p, q) in shift(inverse, *inner, rest).items():
                r, s = out.get(k, (0, 0))
                out[k] = (r + sign * (re * p - im * q), s + sign * (re * q + im * p))
        return {k: v for k, v in out.items() if any(v)}

    def y_route(key):
        mu, exps = key
        out = {}
        for al in range(n):
            for k, v in pbw_product(c, {mi_unit(n, al): (1, 0)}, shift(True, mu, al, exps)).items():
                r, s = out.get(k, (0, 0))
                out[k] = (r + v[0], s + v[1])
        return {k: v for k, v in out.items() if any(v)}

    return {
        "straighten": word,
        "t_action": lambda key: shift(False, *key),
        "tinv_action": lambda key: shift(True, *key),
        "y_action": y_route,
    }


def _omega_reference(real, exps):
    """omega(X^a) = xhat_1^a_1 ... xhat_n^a_n 1, by fresh `apply` calls."""
    f = Polynomial.one(real.algebra.n)
    for mu in reversed(range(len(exps))):
        for _ in range(exps[mu]):
            f = real.xhat[mu].apply(f)
    return f


@pytest.mark.parametrize(
    "g, order, degree",
    [(su2_algebra(), 8, 4), (kappa_algebra([I, Scalar(1), Scalar(1, 2)]), 6, 3)],
    ids=["su2-order8", "kappa-1i,1,1/2-order6"],
)
def test_memo_forms_are_reduced_and_exact(g, order, degree):
    # every memo entry on the star path is a numerator form (den, rows) in
    # lowest common terms, and its Scalars are the entry's exact value
    ctx = make_context(g, order)
    rng = random.Random(5)
    for _ in range(4):
        f, h = random_polynomial(rng, 3, degree), random_polynomial(rng, 3, degree)
        star(ctx, f, h)
        star(ctx, h, f, "dual")
        A = omega_inv(ctx, f)
        y_action(g, rng.randrange(3), A)
        t_action(g, rng.randrange(3), rng.randrange(3), A)
    memos = [(None, ctx._omega_cache)]
    for alg in (ctx.algebra, ctx.dual_alg):
        refs = _memo_references(alg)
        memos += [(refs[name], alg.cache(name)) for name in refs]
    # the sweep fills the omega memo and all four of the algebra's
    assert all(len(memo) for _, memo in memos[:5])
    for ref, memo in memos:
        for key, (den, rows) in memo.items():
            assert den > 0 and gcd(den, *(x for _, p, q in rows for x in (p, q))) == 1
            terms = Polynomial(g.n)._like((den, rows)).terms
            if ref is not None:
                assert {k: (v.re, v.im) for k, v in terms.items()} == ref(key)
            elif key[0] == "inv":
                # omega(omega_inv(x^a)) = x^a
                real = ctx.route(key[1])[0]
                back = Polynomial.zero(g.n)
                for k, c in terms.items():
                    back = back + _omega_reference(real, k).scale(c)
                assert back == Polynomial(g.n, {key[2]: Scalar(1)})
            else:
                assert terms == _omega_reference(ctx.route(key[0])[0], key[1]).terms


@pytest.mark.parametrize(
    "phi0, x1_image",
    [
        ([[2, 0], [0, 1]], "2*x1"),  # the coefficient of x1 is not 1
        ([[0, 1], [1, 0]], "x2"),  # no x1 at all
        ([[1, 1], [0, 1]], "x1 + x2"),  # x1, but another term of degree 1
    ],
)
def test_omega_inv_rejects_a_realization_that_is_not_unitriangular(phi0, x1_image):
    # phi(0) != I: omega(X^a) is not x^a plus terms of lower degree, so the
    # descending-degree inverse does not exist
    g = g2_algebra()
    phi = OpMatrix(2, [[WeylOp.constant(2, c) for c in row] for row in phi0])
    real = realization_from_phi(g, phi)
    ctx = StarContext(g, dual_algebra(g), real, real, 3)
    assert omega(ctx, PBWElement.generator(2, 0)) == parse_polynomial(x1_image, 2)
    with pytest.raises(ValueError, match="lower degree"):
        omega_inv(ctx, parse_polynomial("x1", 2))


def test_omega_inv_symmetrization_on_squares():
    # with the Weyl-symmetric realization, omega_inv(x_mu^2) = X_mu^2
    for g in standard_algebras():
        ctx = make_context(g, 4)
        for mu in range(g.n):
            f = Polynomial.variable(g.n, mu)
            lift = omega_inv(ctx, f * f)
            assert lift == PBWElement.monomial(
                g.n, tuple(2 if k == mu else 0 for k in range(g.n))
            )


def test_star_associative():
    rng = random.Random(43)
    for g in standard_algebras():
        ctx = make_context(g, 6)
        for _ in range(4):
            f = random_polynomial(rng, g.n, 2, terms=2)
            h = random_polynomial(rng, g.n, 2, terms=2)
            k = random_polynomial(rng, g.n, 2, terms=2)
            assert star(ctx, star(ctx, f, h), k) == star(ctx, f, star(ctx, h, k))


def test_star_homomorphism():
    # omega intertwines pbw_mul and star by construction; check on elements
    g = g2_algebra()
    ctx = make_context(g, 4)
    A = PBWElement.monomial(2, (1, 1))
    B = PBWElement.generator(2, 1)
    lhs = omega(ctx, pbw_mul(g, A, B))
    rhs = star(ctx, omega(ctx, A), omega(ctx, B))
    assert lhs == rhs


def test_duality():
    rng = random.Random(47)
    for g in standard_algebras():
        ctx = make_context(g, 6)
        for _ in range(5):
            f = random_polynomial(rng, g.n, 3)
            h = random_polynomial(rng, g.n, 3)
            assert duality_check(ctx, f, h)


def test_verify_duality_report():
    rng = random.Random(53)
    ctx = make_context(g2_algebra(), 6)
    rep = verify_duality(ctx, 5, rng)
    assert rep["pass"]
    names = [c["identity"] for c in rep["checks"]]
    assert "xhat-yhat-commute" in names
    assert "dual-bracket-sign" in names


def test_poisson_first_order():
    rng = random.Random(59)
    for g in standard_algebras():
        ctx = make_context(g, 6)
        for _ in range(4):
            f = random_polynomial(rng, g.n, 3)
            h = random_polynomial(rng, g.n, 3)
            assert first_order_check(ctx, f, h)


def test_first_order_matches_rejects_products_without_the_bracket():
    # on su2's x1, x2 the commutative product has no first-order part; the
    # other product adds half the bracket of the pair in a fixed order, so its
    # first-order part is right for (x1, x2) but its star-commutator part is 0
    g = su2_algebra()
    bracket = partial(poisson_first_order, g)
    x1, x2 = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    assert not bracket(x1, x2).is_zero()

    def half_sorted(a, b):
        return a * b + bracket(*sorted((a, b), key=str)).scale(Scalar(1, 2))

    assert half_sorted(x1, x2).homogeneous_part(1) == bracket(x1, x2).scale(Scalar(1, 2))
    for product_ in (lambda a, b: a * b, half_sorted):
        assert not first_order_matches(product_, bracket, x1, x2)


def test_poisson_bracket_antisymmetric():
    rng = random.Random(61)
    g = g2_algebra()
    f = random_polynomial(rng, 2, 3)
    h = random_polynomial(rng, 2, 3)
    assert poisson_first_order(g, f, h) == poisson_first_order(g, h, f).scale(
        Scalar(-1)
    )


def test_order_guards():
    ctx = make_context(g2_algebra(), 3)
    big = parse_polynomial("x1^2", 2)
    with pytest.raises(InsufficientOrder):
        star(ctx, big, big)
    with pytest.raises(InsufficientOrder):
        omega_inv(ctx, parse_polynomial("x1^4", 2))
    with pytest.raises(InsufficientOrder):
        omega(ctx, PBWElement.monomial(2, (2, 2)))


@pytest.mark.parametrize("zero", [True, False], ids=["zero", "nonzero"])
def test_unknown_route_is_rejected_for_every_input(zero):
    # the route is checked at the entry, before any term is read
    ctx = make_context(g2_algebra(), 3)
    f = Polynomial.zero(2) if zero else parse_polynomial("x1*x2 + 1/2", 2)
    X = PBWElement.zero(2) if zero else PBWElement.monomial(2, (1, 1))
    for call in (
        lambda: star(ctx, f, f, "bogus"),
        lambda: star(ctx, f, f, "Dual"),
        lambda: omega(ctx, X, "bogus"),
        lambda: omega_inv(ctx, f, "bogus"),
    ):
        with pytest.raises(ValueError, match="unknown route"):
            call()


# the paper's left-right duality as operator identities, on algebras with
# real, Gaussian and nilpotent constants
DUALITY_ALGEBRAS = pytest.mark.parametrize(
    "g",
    [
        su2_algebra(),
        g2_algebra(),
        kappa_algebra([I, Scalar(1), Scalar(1) / 2]),
        load_algebra(str(Path(__file__).with_name("heisenberg.json"))),
    ],
    ids=["su2", "g2", "kappa(1i,1,1/2)", "heisenberg"],
)


@DUALITY_ALGEBRAS
def test_each_realization_multiplies_on_the_right_on_the_other_route(g):
    # yhat_mu |> f = f * x_mu and xhat_mu |> f = f *~ x_mu, with the left
    # companions xhat_mu |> f = x_mu * f and yhat_mu |> f = x_mu *~ f
    order, n, rng = 6, g.n, random.Random(9)
    ctx = make_context(g, order)
    assert ctx.primal.phi is series_matrix(g, "psi", order)
    assert ctx.dual.phi is series_matrix(g, "psi_tilde", order)
    for _ in range(5):
        f = random_polynomial(rng, n, 3)
        for mu in range(n):
            x = Polynomial(n, {mi_unit(n, mu): Scalar(1)})
            xf, yf = ctx.primal.xhat[mu].apply(f), ctx.dual.xhat[mu].apply(f)
            assert yf == star(ctx, f, x) and xf == star(ctx, f, x, "dual")
            assert xf == star(ctx, x, f) and yf == star(ctx, x, f, "dual")


@DUALITY_ALGEBRAS
def test_shift_operators_carry_one_realization_to_the_other(g):
    # psi_tilde(t) = e^{-t} psi(t): phi_dual = Tinv phi and phi = T phi_dual
    # through N - 1, so yhat_mu = sum_be xhat_be Tinv_{mu be}
    order = 6
    phi, phi_dual = series_matrix(g, "psi", order), series_matrix(g, "psi_tilde", order)
    T, Tinv = series_matrix(g, "exp", order), series_matrix(g, "exp_neg", order)
    assert (Tinv * phi).truncate(order - 1) == phi_dual.truncate(order - 1)
    assert (T * phi_dual).truncate(order - 1) == phi.truncate(order - 1)
