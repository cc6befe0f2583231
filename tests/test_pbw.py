import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieweyl import (
    I,
    PBWElement,
    Scalar,
    abelian,
    g2_algebra,
    kappa_algebra,
    pbw_mul,
    su2_algebra,
    t_action,
    tinv_action,
    y_action,
)
from conftest import random_monomial, standard_algebras
from normal_order import constants, mi_unit, pbw_product


def test_straighten_g2():
    g = g2_algebra()
    X1 = PBWElement.generator(2, 0)
    X2 = PBWElement.generator(2, 1)
    # X2 X1 = X1 X2 - X2
    assert pbw_mul(g, X2, X1) == pbw_mul(g, X1, X2) - X2
    assert pbw_mul(g, X1, X2) == PBWElement.monomial(2, (1, 1))


def test_abelian_commutative():
    g = abelian(3)
    rng = random.Random(3)
    for _ in range(10):
        A = random_monomial(rng, 3, 3)
        B = random_monomial(rng, 3, 3)
        assert pbw_mul(g, A, B) == pbw_mul(g, B, A)


def test_mul_associative():
    rng = random.Random(7)
    for g in standard_algebras():
        for _ in range(6):
            A = random_monomial(rng, g.n, 2)
            B = random_monomial(rng, g.n, 2)
            C = random_monomial(rng, g.n, 2)
            assert pbw_mul(g, pbw_mul(g, A, B), C) == pbw_mul(g, A, pbw_mul(g, B, C))


def test_mul_degree_and_leading_term():
    g = su2_algebra()
    A = PBWElement.monomial(3, (2, 1, 0))
    B = PBWElement.monomial(3, (0, 1, 2))
    prod = pbw_mul(g, A, B)
    assert prod.degree() <= A.degree() + B.degree()
    assert prod.terms[(2, 2, 2)] == Scalar(1)


# su2 and g2 have real constants, kappa(1i,1,1/2) Gaussian ones
ORACLE_ALGEBRAS = [su2_algebra(), g2_algebra(), kappa_algebra([I, Scalar(1), Scalar(1, 2)])]
_part = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _pbw_elements(draw, n):
    exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    pairs = st.tuples(_part, _part).filter(any)
    return draw(st.dictionaries(exps, pairs, max_size=3))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pbw_mul_matches_word_straightening(data):
    g = data.draw(st.sampled_from(ORACLE_ALGEBRAS))
    A, B = data.draw(_pbw_elements(g.n)), data.draw(_pbw_elements(g.n))
    got = pbw_mul(g, *(PBWElement(g.n, {k: Scalar(*v) for k, v in M.items()}) for M in (A, B)))
    assert {k: (v.re, v.im) for k, v in got.terms.items()} == pbw_product(constants(g), A, B)


def test_t_action_base_cases():
    g = g2_algebra()
    X1 = PBWElement.generator(2, 0)
    X2 = PBWElement.generator(2, 1)
    one = PBWElement.one(2)
    # T_{mu nu} |> X_lam = delta X_lam + C_{mu lam nu}
    assert t_action(g, 0, 1, X2) == one
    assert t_action(g, 1, 1, X1) == X1 - one
    for mu in range(2):
        for nu in range(2):
            expect = one if mu == nu else PBWElement.zero(2)
            assert t_action(g, mu, nu, one) == expect
            assert tinv_action(g, mu, nu, one) == expect


def test_tinv_base_cases():
    g = g2_algebra()
    X2 = PBWElement.generator(2, 1)
    assert tinv_action(g, 0, 1, X2) == -PBWElement.one(2)


def test_left_shift_decomposition():
    # X_mu X = sum_al (T_{mu al} |> X) X_al
    rng = random.Random(11)
    for g in standard_algebras():
        n = g.n
        for _ in range(8):
            X = random_monomial(rng, n, 4)
            for mu in range(n):
                lhs = pbw_mul(g, PBWElement.generator(n, mu), X)
                rhs = PBWElement.zero(n)
                for al in range(n):
                    rhs = rhs + pbw_mul(
                        g, t_action(g, mu, al, X), PBWElement.generator(n, al)
                    )
                assert lhs == rhs


def test_t_coproduct():
    rng = random.Random(13)
    for g in standard_algebras():
        n = g.n
        for _ in range(4):
            X = random_monomial(rng, n, 3)
            Y = random_monomial(rng, n, 3)
            XY = pbw_mul(g, X, Y)
            for mu in range(n):
                for nu in range(n):
                    s = PBWElement.zero(n)
                    for al in range(n):
                        s = s + pbw_mul(
                            g, t_action(g, mu, al, X), t_action(g, al, nu, Y)
                        )
                    assert s == t_action(g, mu, nu, XY)


def test_tinv_coproduct_reversed_legs():
    rng = random.Random(17)
    for g in standard_algebras():
        n = g.n
        for _ in range(4):
            X = random_monomial(rng, n, 3)
            Y = random_monomial(rng, n, 3)
            XY = pbw_mul(g, X, Y)
            for mu in range(n):
                for nu in range(n):
                    s = PBWElement.zero(n)
                    for al in range(n):
                        s = s + pbw_mul(
                            g, tinv_action(g, al, nu, X), tinv_action(g, mu, al, Y)
                        )
                    assert s == tinv_action(g, mu, nu, XY)


def test_inverse_relations():
    rng = random.Random(19)
    for g in standard_algebras():
        n = g.n
        for _ in range(5):
            X = random_monomial(rng, n, 4)
            for mu in range(n):
                for nu in range(n):
                    fwd = PBWElement.zero(n)
                    bwd = PBWElement.zero(n)
                    for al in range(n):
                        fwd = fwd + t_action(g, mu, al, tinv_action(g, al, nu, X))
                        bwd = bwd + tinv_action(g, mu, al, t_action(g, al, nu, X))
                    expect = X if mu == nu else PBWElement.zero(n)
                    assert fwd == expect and bwd == expect


def test_shift_actions_commute():
    rng = random.Random(23)
    for g in standard_algebras():
        n = g.n
        for _ in range(5):
            X = random_monomial(rng, n, 4)
            a = t_action(g, 0, n - 1, t_action(g, n - 1, 0, X))
            b = t_action(g, n - 1, 0, t_action(g, 0, n - 1, X))
            assert a == b


def test_y_action_routes_agree():
    # y_action raises internally if its two computation routes disagree
    rng = random.Random(29)
    g = g2_algebra()
    X1 = PBWElement.generator(2, 0)
    X2 = PBWElement.generator(2, 1)
    assert y_action(g, 0, X2) == pbw_mul(g, X1, X2) - X2
    assert y_action(g, 1, PBWElement.one(2)) == X2
    for g in standard_algebras():
        for _ in range(6):
            X = random_monomial(rng, g.n, 4)
            for mu in range(g.n):
                assert y_action(g, mu, X) == pbw_mul(
                    g, X, PBWElement.generator(g.n, mu)
                )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_y_action_matches_word_straightening(data):
    # the algebras are shared by every example, so later draws read warm memos
    g = data.draw(st.sampled_from(ORACLE_ALGEBRAS))
    X, mu = data.draw(_pbw_elements(g.n)), data.draw(st.integers(0, g.n - 1))
    got = y_action(g, mu, PBWElement(g.n, {k: Scalar(*v) for k, v in X.items()}))
    expected = pbw_product(constants(g), X, {mi_unit(g.n, mu): (1, 0)})
    assert {k: (v.re, v.im) for k, v in got.terms.items()} == expected


def test_y_action_self_check_reads_the_shift_route_memo():
    # one wrong shift-route entry makes the two routes disagree on every call
    g = su2_algebra()
    X = PBWElement.monomial(3, (1, 2, 0), Scalar(1, 2))
    right = y_action(g, 2, X)
    memo = g.cache("y_action")
    assert set(memo) == {(2, (1, 2, 0))}
    memo[2, (1, 2, 0)] = (1, (((0, 0, 0), 1, 0),))
    with pytest.raises(AssertionError, match="self-check failed for mu=3"):
        y_action(g, 2, X)
    assert y_action(su2_algebra(), 2, X) == right


def test_left_right_multiplication_commute():
    rng = random.Random(31)
    for g in standard_algebras():
        n = g.n
        for _ in range(5):
            X = random_monomial(rng, n, 3)
            for mu in range(n):
                for nu in range(n):
                    left_then_right = y_action(
                        g, nu, pbw_mul(g, PBWElement.generator(n, mu), X)
                    )
                    right_then_left = pbw_mul(
                        g, PBWElement.generator(n, mu), y_action(g, nu, X)
                    )
                    assert left_then_right == right_then_left


def test_index_errors():
    g = g2_algebra()
    with pytest.raises(IndexError):
        t_action(g, 0, 5, PBWElement.one(2))
    with pytest.raises(IndexError):
        tinv_action(g, 5, 0, PBWElement.one(2))


def test_str_brackets_gaussian_coefficients():
    X = PBWElement(
        2, {(1, 0): Scalar(1, 2), (0, 1): Scalar(0, -1), (0, 0): Scalar(3, 1)}
    )
    assert str(X) == "3+1i + (-1i)*X2 + (1+2i)*X1"


def test_add_sub_check_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        PBWElement.generator(2, 0) + PBWElement.generator(3, 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        PBWElement.generator(2, 0) - PBWElement.generator(3, 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        pbw_mul(g2_algebra(), PBWElement.generator(2, 0), PBWElement.generator(3, 0))
