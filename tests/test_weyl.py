from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from normal_order import commutator, product

from lieweyl import (
    InsufficientOrder,
    OpMatrix,
    Polynomial,
    Scalar,
    TruncSeries,
    WeylOp,
    adjoint_matrix,
    g2_algebra,
    matrix_series,
    series_coeffs,
    series_in_op,
    su2_algebra,
    sum_of_products,
)
from lieweyl.weyl import INF


def x(mu, n=2):
    return WeylOp.x(n, mu)


def d(mu, n=2):
    return WeylOp.d(n, mu)


def test_canonical_commutator():
    for mu in range(2):
        for nu in range(2):
            expect = WeylOp.one(2) if mu == nu else WeylOp.zero(2)
            assert commutator(d(mu), x(nu)) == expect


def test_normal_ordering():
    x2 = product(x(0), x(0))
    # d^2 x = x d^2 + 2 d
    assert product(d(0) * d(0), x(0)) == x(0) * d(0) * d(0) + d(0).scale(Scalar(2))
    # d x^2 = x^2 d + 2x
    assert product(d(0), x2) == x2 * d(0) + x(0).scale(Scalar(2))


def test_product_rejects_right_factor_with_x():
    # normal ordering is not done by the library: a right factor with x is refused
    for right in (x(0), x(1) * d(0), d(0) + x(0)):
        with pytest.raises(ValueError, match="x-free"):
            d(0) * right


def test_apply():
    f = Polynomial.variable(2, 0)
    op = x(1) * d(0)
    assert op.apply(f) == Polynomial.variable(2, 1)
    assert d(0).apply(Polynomial.one(2)).is_zero()
    cube = f * f * f
    assert (d(0) * d(0)).apply(cube) == f.scale(Scalar(6))


def test_apply_insufficient_order():
    op = WeylOp.x(2, 0).truncate(1)
    f = Polynomial.variable(2, 0)
    with pytest.raises(InsufficientOrder):
        op.apply(f * f * f)


def test_truncation_tracking():
    a = WeylOp.d(2, 0).truncate(2)
    b = WeylOp.x(2, 0)
    prod = product(a, b)
    # multiplying by an x-degree-1 factor costs one guaranteed order
    assert prod.valid_order == 1


def test_truncated_product_certifies_no_constant_it_lacks():
    # d x = x d + 1, but d cut at order 0 has lost d itself, so nothing is known
    prod = product(WeylOp.d(1, 0).truncate(0), WeylOp.x(1, 0))
    assert prod.valid_order < 0
    with pytest.raises(InsufficientOrder):
        prod.apply(Polynomial.one(1))


gauss = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def operands(draw):
    """(n, A, B, f): exact operands with exponents up to 2 in x and d, and f."""
    n = draw(st.integers(1, 3))
    mi = st.tuples(*[st.integers(0, 2)] * n)
    op = st.dictionaries(st.tuples(mi, mi), gauss, max_size=3).map(
        lambda t: WeylOp(n, t)
    )
    poly = st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), gauss, max_size=3)
    return n, draw(op), draw(op), Polynomial(n, draw(poly))


@given(operands())
@settings(max_examples=60, deadline=None)
def test_product_is_composition_of_actions(ops):
    # the action on polynomials shares no code with the normal-ordered product
    _, A, B, f = ops
    assert product(A, B).apply(f) == A.apply(B.apply(f))


@given(operands(), st.integers(0, 4), st.integers(0, 4))
@example((1, d(0, 1), x(0, 1), None), 0, 0)
@settings(max_examples=60, deadline=None)
def test_truncated_product_is_the_exact_product_cut(ops, cut_a, cut_b):
    _, A, B, _ = ops
    prod = product(A.truncate(cut_a), B.truncate(cut_b))
    assert prod == product(A, B).truncate(prod.valid_order)


@given(operands(), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_product_by_x_free_factor_is_the_normal_ordered_one(ops, cut_a, cut_b):
    n, A, B, _ = ops
    A, B = A.truncate(cut_a), B.truncate(cut_b)
    B = WeylOp(n, {k: c for k, c in B.terms.items() if not any(k[0])}, B.valid_order)
    ours, oracle = A * B, product(A, B)
    assert ours == oracle and ours.valid_order == oracle.valid_order


# Gaussian rationals with unlike small denominators, zero parts included
gauss_q = st.builds(
    Scalar,
    st.fractions(-3, 3, max_denominator=6),
    st.fractions(-3, 3, max_denominator=6) | st.just(0),
)
orders = st.integers(0, 4) | st.just(INF)


@st.composite
def product_sums(draw):
    """(pairs, cap): 1-4 pairs (A, B) with x in A only, some of them empty or
    truncated, the last one possibly cancelling the first, and a valid-order cap."""
    n = draw(st.integers(1, 3))
    mi = st.tuples(*[st.integers(0, 2)] * n)
    zero = (0,) * n
    left = st.builds(
        lambda t, vo: WeylOp(n, t, vo),
        st.dictionaries(st.tuples(mi, mi), gauss_q, max_size=3),
        orders,
    )
    right = st.builds(
        lambda t, vo: WeylOp(n, {(zero, e): c for e, c in t.items()}, vo),
        st.dictionaries(mi, gauss_q, max_size=3),
        orders,
    )
    pairs = draw(st.lists(st.tuples(left, right), min_size=1, max_size=3))
    if draw(st.booleans()):
        A, B = pairs[0]
        pairs.append((A, -B))
    return pairs, draw(orders)


@given(product_sums())
@example(([(x(0, 1) * d(0, 1), d(0, 1)), (x(0, 1) * d(0, 1), -d(0, 1))], INF))
@example(([(WeylOp.zero(2, 1), d(0).truncate(3))], 2))
@settings(max_examples=120, deadline=None)
def test_sum_of_products_is_the_sum_of_normal_ordered_products(case):
    pairs, cap = case
    prods = [product(A, B) for A, B in pairs]
    vo = min([cap, *(p.valid_order for p in prods)])
    expected = {}
    for p in prods:
        for key, c in p.terms.items():
            if sum(key[1]) <= vo:
                expected[key] = expected.get(key, Scalar(0)) + c
    expected = {k: c for k, c in expected.items() if c}
    out = sum_of_products(pairs, cap)
    assert out.terms == expected and out.valid_order == vo
    assert all(out.terms.values())


def test_sum_of_products_needs_a_pair():
    with pytest.raises(ValueError):
        sum_of_products([])


@pytest.mark.parametrize(
    "value, half",
    [
        (d(0), WeylOp(2, {((0, 0), (1, 0)): Scalar(Fraction(1, 2))})),
        (Polynomial.variable(2, 0), Polynomial(2, {(1, 0): Scalar(Fraction(1, 2))})),
        (TruncSeries([1, 2]), TruncSeries([Fraction(1, 2), 1])),
    ],
    ids=["WeylOp", "Polynomial", "TruncSeries"],
)
@pytest.mark.parametrize("side", ["left", "right"])
def test_scalar_multiplication_on_either_side(value, half, side):
    def times(c):
        return c * value if side == "left" else value * c

    for c in (Fraction(1, 2), Scalar(Fraction(1, 2)), "1/2"):
        assert times(c) == half
    assert times(2) * Fraction(1, 4) == half
    for bad in (None, object(), [1], complex(1, 1), 0.5):
        with pytest.raises(TypeError):
            times(bad)


@given(operands(), st.integers(0, 4), st.integers(0, 2))
@example((1, x(0, 1) * d(0, 1), None, None), 0, 0)
@settings(max_examples=60, deadline=None)
def test_truncated_deriv_d_is_the_exact_one_cut(ops, cut, lam):
    n, A, _, _ = ops
    out = A.truncate(cut).deriv_d(lam % n)
    assert out == A.deriv_d(lam % n).truncate(out.valid_order)


def test_deriv_d():
    op = x(0) * d(0) * d(0)  # x1 d1^2
    assert op.deriv_d(0) == x(0).scale(Scalar(2)) * d(0)
    assert op.deriv_d(1).is_zero()


def test_matrix_series_vs_manual():
    g = g2_algebra()
    C = adjoint_matrix(g)
    order = 4
    f = series_coeffs("exp", order)
    M = matrix_series(f, C)
    # manual sum of powers
    acc = OpMatrix.identity(2)
    power = OpMatrix.identity(2)
    fact = Scalar(1)
    for k in range(1, order + 1):
        power = (power * C).truncate(order)
        fact = fact * Scalar(k)
        acc = acc + power.scale(Scalar(1) / fact)
    assert M.truncate(order) == acc.truncate(order)


def test_matrix_series_rejects_bad_entries():
    n = 2
    bad = OpMatrix(n, [[WeylOp.one(n), WeylOp.zero(n)], [WeylOp.zero(n), WeylOp.one(n)]])
    with pytest.raises(ValueError):
        matrix_series(series_coeffs("exp", 3), bad)


def test_series_in_op_univariate():
    n = 1
    A = WeylOp.d(n, 0)
    order = 5
    ep = series_in_op(series_coeffs("exp", order), A)
    en = series_in_op(series_coeffs("exp_neg", order), A)
    assert (ep * en).truncate(order) == WeylOp.one(n).truncate(order)


def test_series_keep_a_truncated_input_order():
    # a truncated input bounds the result: all that is known of C is degree <= 2
    exp6 = series_coeffs("exp", 6)
    C = adjoint_matrix(su2_algebra())
    assert matrix_series(exp6, C.truncate(2)).valid_order() == 2
    assert series_in_op(exp6, d(0, 1).truncate(2)).valid_order == 2
    # an exact input is valid through the order of the series
    assert matrix_series(exp6, C).valid_order() == 6
    assert series_in_op(exp6, d(0, 1)).valid_order == 6


@pytest.mark.parametrize(
    "A", [x(0, 1) * d(0, 1), d(0, 1) + WeylOp.one(1)], ids=["with-x", "with-constant"]
)
def test_series_in_op_rejects_bad_operator(A):
    with pytest.raises(ValueError):
        series_in_op(series_coeffs("exp", 3), A)


def test_op_str_and_json():
    op = x(0) * d(1) - WeylOp.one(2).scale(Scalar(1) / 2)
    assert str(op) == "-1/2 + x1*d2"
    back = WeylOp.from_json(2, op.to_json())
    assert back == op
