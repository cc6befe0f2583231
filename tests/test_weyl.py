import gc
from fractions import Fraction
from math import perm
from operator import add
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from normal_order import added, commutator, product, sympy_poly

from lieweyl import (
    InsufficientOrder,
    OpMatrix,
    Polynomial,
    Scalar,
    TruncSeries,
    WeylOp,
    adjoint_matrix,
    g2_algebra,
    kappa_algebra,
    matrix_series,
    realization_from_phi,
    series_coeffs,
    series_in_op,
    su2_algebra,
    sum_of_products,
)
from lieweyl import weyl
from lieweyl.kappa import _function_of_c
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
    # the total degree in x and d: x d^2 + 2 d has degree 3, and 0 has degree -1
    assert product(d(0) * d(0), x(0)).degree() == 3 and WeylOp.zero(2).degree() == -1
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


gauss_q = st.builds(Scalar, *[st.fractions(-4, 4, max_denominator=9)] * 2)


@st.composite
def actions(draw):
    """(n, A, f): an exact sum of c x^a d^b and a polynomial, Gaussian-rational
    coefficients, exponents up to 3."""
    n = draw(st.integers(1, 3))
    mi = st.tuples(*[st.integers(0, 3)] * n)
    A = WeylOp(n, draw(st.dictionaries(st.tuples(mi, mi), gauss_q, max_size=4)))
    return n, A, Polynomial(n, draw(st.dictionaries(mi, gauss_q, max_size=4)))


@given(actions())
@settings(max_examples=50, deadline=None)
def test_apply_against_sympy(case):
    # sympy's diff and expand share no code with WeylOp.apply
    sympy = pytest.importorskip("sympy")
    n, A, f = case
    xs = sympy.symbols(f"x1:{n + 1}")
    F = sympy_poly(f, xs)
    expected = sympy.Add(*(
        sympy_poly(Polynomial(n, {a: c}), xs) * sympy.diff(F, *zip(xs, b))
        for (a, b), c in A.terms.items()
    ))
    assert sympy.expand(sympy_poly(A.apply(f), xs) - expected) == 0


def test_apply_to_a_squarefree_monomial_of_degree_24_scans_the_distinct_b(monkeypatch):
    # x_1 ... x_24 has 2^24 divisors, far more than the operator's 38 distinct
    # b, so apply scans those and visits the 37 b <= e, each one evaluation of
    # e!/(e - b)! through weyl.perm (n calls); the result agrees with sympy's
    # diff and expand
    sympy = pytest.importorskip("sympy")
    perms = []

    def counted(e, b):
        perms.append(b)
        return perm(e, b)

    monkeypatch.setattr(weyl, "perm", counted)
    n = 24
    unit = [tuple(int(k == mu) for k in range(n)) for mu in range(n)]
    z = (0,) * n
    A = WeylOp(n, {
        **{(unit[mu], unit[(mu + 1) % n]): Scalar(mu + 1, 2) for mu in range(n)},
        **{(z, tuple(map(add, unit[mu], unit[mu + 5]))): Scalar(1, mu + 1) for mu in range(12)},
        (z, tuple(2 * e for e in unit[3])): Scalar(7),
        (unit[0], z): Scalar(0, 1),
    })
    f = Polynomial(n, {(1,) * n: Scalar(3, 5)})
    start = perf_counter()
    got = A.apply(f)
    assert perf_counter() - start < 1 and len(perms) == 37 * n
    xs = sympy.symbols(f"x1:{n + 1}")
    F = sympy_poly(f, xs)
    expected = sympy.Add(*(
        sympy_poly(Polynomial(n, {a: c}), xs) * sympy.diff(F, *zip(xs, b))
        for (a, b), c in A.terms.items()
    ))
    assert sympy.expand(sympy_poly(got, xs) - expected) == 0 and len(got.form[1]) == 37


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
    """(pairs, cap): 1-4 pairs (A, B), some with a constant c as (A, B, c), with
    x in A only, some of them empty or truncated, the last one possibly
    cancelling the first, and a valid-order cap."""
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
    pair = st.tuples(left, right) | st.tuples(left, right, gauss_q)
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    if draw(st.booleans()):
        A, B, *c = pairs[0]
        pairs.append((A, -B, *c))
    return pairs, draw(orders)


@given(product_sums())
@example(([(x(0, 1) * d(0, 1), d(0, 1)), (x(0, 1) * d(0, 1), -d(0, 1))], INF))
@example(([(WeylOp.zero(2, 1), d(0).truncate(3))], 2))
@settings(max_examples=120, deadline=None)
def test_sum_of_products_is_the_sum_of_normal_ordered_products(case):
    pairs, cap = case
    prods = [product(A, B).scale(c[0] if c else 1) for A, B, *c in pairs]
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


def _cut_product(A, B, cap):
    """The oracle for sum_of_products([(A, B)], cap)."""
    prod = product(A, B)
    return prod.truncate(min(cap, prod.valid_order))


@st.composite
def wide_product_sums(draw):
    """(pairs, cap) as product_sums draws them, with exponents of 31-64 and
    120-136 next to small ones: twice a degree crosses 256, the limit of the
    packed keys' 8-bit fields, and the call runs at 16 bits."""
    n = draw(st.integers(1, 2))
    mi = st.tuples(*[st.integers(0, 2) | st.integers(31, 64) | st.integers(120, 136)] * n)
    zero = (0,) * n
    left = st.dictionaries(st.tuples(mi, mi), gauss_q, min_size=1, max_size=3)
    right = st.dictionaries(mi, gauss_q, min_size=1, max_size=3)
    pair = st.tuples(
        left.map(lambda t: WeylOp(n, t)),
        right.map(lambda t: WeylOp(n, {(zero, e): c for e, c in t.items()})),
    )
    cap = st.sampled_from([31, 64, 127, 128, 255, 256, INF])
    return draw(st.lists(pair, min_size=1, max_size=3)), draw(cap)


D40 = WeylOp(1, {((0,), (40,)): Scalar(1)})
D200 = WeylOp(1, {((0,), (200,)): Scalar(1)})


@given(wide_product_sums())
@example(([(D40, D40)], INF))
@example(([(D40, D40)], 31))
@example(([(D40, D40)], 80))
@example(([(D200, D200)], INF))
@settings(max_examples=60, deadline=None)
def test_sum_of_products_with_exponents_past_each_field_width(case):
    pairs, cap = case
    expected = WeylOp.zero(pairs[0][0].n, cap)
    for A, B in pairs:
        expected = added(expected, _cut_product(A, B, cap))
    out = sum_of_products(pairs, cap)
    assert out.terms == expected.terms and out.valid_order == cap


def test_stored_form_is_widened_and_kept_across_calls():
    # one left operand under two caps and two field widths: its packed keys
    # are rebuilt once, from 8 to 16 bits, when a right factor of degree 130
    # needs them, and the narrower calls after that read the wide layout; the
    # stored numerator form itself never changes
    z = (0, 0)
    A = WeylOp(2, {((1, 0), (3, 0)): Scalar(1, 2), ((0, 2), (0, 1)): Scalar(0, 1)})
    narrow = d(1) * d(0)
    wide = WeylOp(2, {(z, (130, 0)): Scalar(1), (z, (0, 128)): Scalar(-2, 3)})
    widths, form = [], A.form
    for B, cap in [(narrow, INF), (narrow, 3), (wide, INF), (wide, 129), (narrow, INF)]:
        out = sum_of_products([(A, B)], cap)
        assert out == _cut_product(A, B, cap) and out.valid_order == cap
        widths.append(A._packed[0])
        assert A.form is form
    assert widths == [8, 8, 16, 16, 16]
    # an x exponent past 255 widens a layout on its own, whatever the degree
    X300 = WeylOp(1, {((300,), (1,)): Scalar(1)})
    assert (X300 * D40).terms == {((300,), (41,)): Scalar(1)} and X300._packed[0] == 16
    assert (D200 * D200).terms == {((0,), (400,)): Scalar(1)} and D200._packed[0] == 16


def test_sum_of_products_needs_a_pair():
    with pytest.raises(ValueError):
        sum_of_products([])


@st.composite
def operand_pairs(draw):
    """(A, B): operators with x and d in both, some empty or truncated, B
    sometimes sharing A's keys so that coefficients add and cancel."""
    n = draw(st.integers(1, 3))
    mi = st.tuples(*[st.integers(0, 2)] * n)
    op = st.builds(
        lambda t, vo: WeylOp(n, t, vo),
        st.dictionaries(st.tuples(mi, mi), gauss_q, max_size=4),
        orders,
    )
    A, B = draw(op), draw(op)
    if draw(st.booleans()):
        B = WeylOp(n, {**B.terms, **A.terms}, B.valid_order)
    return A, B


@given(operand_pairs())
@example((x(0) * d(0), -(x(0) * d(0)).truncate(1)))
@example((WeylOp.zero(2, 3), WeylOp.zero(2)))
@settings(max_examples=120, deadline=None)
def test_sum_and_difference_are_the_merged_cut_operands(ops):
    A, B = ops
    for ours, oracle in ((A + B, added(A, B)), (A - B, added(A, B, -1))):
        assert ours.terms == oracle.terms
        assert ours.valid_order == min(A.valid_order, B.valid_order)
    wider = WeylOp.zero(A.n + 1)
    for bad in (lambda: A + wider, lambda: A - wider, lambda: wider + B):
        with pytest.raises(ValueError):
            bad()


def test_operator_sum_with_a_polynomial_raises():
    f = Polynomial.variable(2, 0)
    for bad in (lambda: x(0) + f, lambda: x(0) - f, lambda: f + x(0)):
        with pytest.raises(TypeError):
            bad()


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
    # formed once per operator and kept: the suites take each one many times
    assert op.deriv_d(0) is op.deriv_d(0) and op.deriv_d(0).valid_order == INF


def test_matrix_series_vs_manual():
    g = g2_algebra()
    C = adjoint_matrix(g)
    order = 4
    f = series_coeffs("exp", order)
    M = matrix_series(f, C)
    # manual sum of powers
    acc = OpMatrix.identity(2).entries
    power = OpMatrix.identity(2)
    fact = Scalar(1)
    for k in range(1, order + 1):
        power = (power * C).truncate(order)
        fact = fact * Scalar(k)
        acc = [
            [added(a, p.scale(Scalar(1) / fact)) for a, p in zip(ra, rp)]
            for ra, rp in zip(acc, power.entries)
        ]
    assert M.truncate(order) == OpMatrix(2, acc).truncate(order)


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


def test_series_valid_order_counts_only_the_powers_it_sums():
    C = adjoint_matrix(su2_algebra()).truncate(2)
    # f_0 alone sums no power of C, so the cut of C does not bound the result
    only_f0 = matrix_series(TruncSeries([1, 0, 0, 0]), C)
    assert only_f0 == OpMatrix.identity(3) and only_f0.valid_order() == 3
    assert matrix_series(TruncSeries([0, 0, 0, 5]), C).valid_order() == 2
    assert matrix_series(TruncSeries([0, 0, 0]), C).valid_order() == 2


def fresh_series(f, C):
    """sum_k f_k C^k through order(f) by a plain loop: powers by the Leibniz
    oracle `product`, sums by `added`, with no chain and no library kernel."""
    amb, order = C[0, 0].n, f.order
    power = OpMatrix.identity(amb, C.n).entries
    acc = [[WeylOp.zero(amb, order) for _ in range(C.n)] for _ in range(C.n)]
    for k in range(order + 1):
        if f[k]:
            acc = [[added(a, p, f[k].re) for a, p in zip(ra, rp)] for ra, rp in zip(acc, power)]
        power = [[_dot(row, col, amb) for col in zip(*C.entries)] for row in power]
    return acc


def _dot(row, col, amb):
    out = WeylOp.zero(amb)
    for a, b in zip(row, col):
        out = added(out, product(a, b))
    return out


SERIES_KINDS = ["psi", "psi_tilde", "exp", "exp_neg", "dexp", "dexp_neg"]


@given(
    st.sampled_from(SERIES_KINDS), st.integers(0, 8), st.integers(1, 3),
    st.sampled_from([None, 1, 3]), st.sampled_from([su2_algebra, g2_algebra]),
)
@settings(max_examples=40, deadline=None)
def test_series_from_a_kept_chain_matches_a_fresh_evaluation(kind, order, extra, cut, algebra):
    C = adjoint_matrix(algebra())
    if cut is not None:
        C = C.truncate(cut)
    # a wider series first, so the chain is kept longer than f needs
    matrix_series(series_coeffs("exp", order + extra), C)
    f = series_coeffs(kind, order)
    got = matrix_series(f, C)
    for row, fresh_row in zip(got.entries, fresh_series(f, C)):
        for op, fresh in zip(row, fresh_row):
            assert op == fresh and op.valid_order == fresh.valid_order


def test_series_forms_no_power_past_its_last_nonzero_coefficient(monkeypatch):
    links = []
    mul = OpMatrix.__mul__

    def counted(a, other):
        links.append(a)
        return mul(a, other)

    monkeypatch.setattr(OpMatrix, "__mul__", counted)
    C = adjoint_matrix(su2_algebra())
    assert matrix_series(TruncSeries([0, 0, 0, 0]), C) == OpMatrix.zero(3)
    assert not links
    # C^2 = C C, read from the chain's C: no product by the identity
    matrix_series(TruncSeries([1, 0, 2, 0, 0, 0]), C)
    assert links == [C]
    # the chain is extended, never rebuilt, and a longer series of lower
    # degree reads it as it is
    matrix_series(TruncSeries([0, 0, 0, 1]), C)
    assert len(links) == 2
    matrix_series(TruncSeries([0, 1, 0, 0, 0, 0, 0]), C)
    assert links == C.powers(2)[1:]


@given(
    product_sums(), st.integers(0, 2), st.sampled_from(SERIES_KINDS), st.integers(0, 6),
    st.sampled_from([None, 1, 3]), st.sampled_from([su2_algebra, g2_algebra]),
    st.lists(gauss_q, min_size=2, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_no_operator_keeps_a_term_past_its_valid_order(case, lam, kind, order, cut, algebra, b):
    # the invariant that lets a product be compared or summed without a cut
    pairs, cap = case
    out = sum_of_products(pairs, cap)
    ops = [out, out.deriv_d(lam % out.n)]
    g = algebra()
    C = adjoint_matrix(g) if cut is None else adjoint_matrix(g).truncate(cut)
    phi = matrix_series(series_coeffs(kind, order), C)
    ops += [op for row in phi.entries for op in row] + realization_from_phi(g, phi).xhat
    closed = _function_of_c(kappa_algebra(b), series_coeffs(kind, order + 1))
    ops += [op for row in closed.entries for op in row]
    assert all(op.truncate(op.valid_order).terms == op.terms for op in ops)


def test_power_chain_holds_no_reference_cycle():
    # an algebra dropped with its chain is freed at once, not by the cyclic collector
    gc.collect()
    gc.disable()
    try:
        g = su2_algebra()
        matrix_series(series_coeffs("exp", 6), adjoint_matrix(g))
        gc.collect()
        del g
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "A",
    [x(0, 1) * d(0, 1), d(0, 1) + WeylOp.one(1), d(0, 1) * d(0, 1), d(0) + d(0) * d(1)],
    ids=["with-x", "with-constant", "d1*d1", "d1+d1*d2"],
)
def test_series_in_op_rejects_bad_operator(A):
    with pytest.raises(ValueError):
        series_in_op(series_coeffs("exp", 3), A)


def test_op_str_and_json():
    op = x(0) * d(1) - WeylOp.one(2).scale(Scalar(1) / 2)
    assert str(op) == "-1/2 + x1*d2"
    back = WeylOp.from_json(2, op.to_json())
    assert back == op
