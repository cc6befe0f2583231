"""Every term map holds one reduced numerator form, whatever formed it.

The invariant: den > 0, gcd(den, every numerator) = 1, no zero row, one row
per key, den = 1 for the zero map, and the map rebuilt from its own Scalar
view is equal to it.  Each public operation that forms a map is checked on
its result.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieweyl import (
    I,
    PBWElement,
    Polynomial,
    Scalar,
    WeylOp,
    kappa_algebra,
    make_context,
    pbw_mul,
    realization_from_phi,
    series_coeffs,
    t_action,
    tinv_action,
    y_action,
)
from lieweyl.poly import _packed
from lieweyl.star import omega, omega_inv
from lieweyl.weyl import INF, OpMatrix, matrix_series, series_in_op, sum_of_products

N = 2

wide = st.fractions(max_denominator=12) | st.builds(
    Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)
)
gaussians = st.builds(Scalar, wide, wide | st.just(0))
multi = st.tuples(*[st.integers(0, 2)] * N)
polys = st.builds(lambda t: Polynomial(N, t), st.dictionaries(multi, gaussians, max_size=4))
orders = st.sampled_from([INF, 0, 1, 2, 3])
ops = st.builds(
    lambda t, vo: WeylOp(N, t, vo),
    st.dictionaries(st.tuples(multi, multi), gaussians, max_size=4),
    orders,
)
x_free = st.builds(
    lambda t: WeylOp(N, {((0,) * N, b): c for b, c in t.items()}),
    st.dictionaries(multi, gaussians, max_size=3),
)
# an x-free operator linear in d, the argument of a series
linear = st.builds(
    lambda c: WeylOp(N, {((0,) * N, (1, 0)): c[0], ((0,) * N, (0, 1)): c[1]}),
    st.tuples(gaussians, gaussians),
)


def assert_canonical(M):
    den, rows = M.form
    assert type(den) is int and den > 0
    assert gcd(den, *(x for _, p, q in rows for x in (p, q))) == 1
    assert all(p or q for _, p, q in rows)
    assert len({k for k, _, _ in rows}) == len(rows)
    # every stored key is flat: n ints per key part, an operator's x then d
    width = M.n * len(M.KEY_PARTS)
    assert all(type(k) is tuple and len(k) == width and all(type(e) is int for e in k)
               for k, _, _ in rows)
    assert type(M)(M.n, M.terms) == M


@given(polys, polys, gaussians, st.integers(0, N - 1), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
@example(
    # the only term over 7 is dropped, so den falls from 7 to 1
    Polynomial(N, {(0, 0): Scalar(1), (1, 0): Scalar(Fraction(1, 7))}),
    Polynomial(N), Scalar(0), 0, 0,
)
def test_polynomial_results_are_reduced(f, g, c, mu, d):
    for M in (f, g, f + g, f - g, f - f, -f, f.scale(c), c * f, f * g,
              f.partial(mu), f.homogeneous_part(d)):
        assert_canonical(M)
    assert (f - f).form == (1, ())


@given(ops, x_free, x_free, gaussians, st.integers(0, 3), st.integers(0, N - 1), polys)
@settings(max_examples=40, deadline=None)
@example(
    WeylOp(N, {((0, 0), (0, 0)): Scalar(1), ((0, 0), (2, 0)): Scalar(Fraction(1, 6))}),
    WeylOp(N), WeylOp(N), Scalar(1), 1, 0, Polynomial(N),
)
def test_operator_results_are_reduced(A, B, C, c, order, lam, f):
    assert_canonical(A)
    for M in (A + B, A - B, -A, A.scale(c), A * B, A.truncate(order), A.deriv_d(lam),
              sum_of_products([(A, B), (A, C, c)], order), B.apply(f),
              WeylOp(N, A.terms).apply(f)):
        assert_canonical(M)


wide_multi = st.tuples(*[st.integers(0, 2) | st.integers(100, 140)] * N)


@given(
    st.dictionaries(st.tuples(wide_multi, wide_multi), gaussians, max_size=4),
    orders,
    st.sampled_from([8, 16, 32]),
)
@settings(max_examples=40, deadline=None)
@example({((0, 0), (130, 2)): Scalar(1, 3), ((1, 0), (2, 0)): Scalar(2, 3)}, INF, 8)
def test_derivatives_keep_the_layout_packed_from_their_form(terms, order, width):
    # each derivative is formed from its operator's packed rows and keeps them
    # as its layout, at the operator's width: the very layout that packing the
    # derivative's own form at that width builds
    A = WeylOp(N, terms, order)
    layout = _packed(A, width)
    for lam in range(N):
        D = A.deriv_d(lam)
        assert_canonical(D)
        assert D.valid_order == A.valid_order - 1
        assert D._packed[0] == layout[0]
        assert D._packed == _packed(D._like(D.form), layout[0])


@given(linear, linear, st.sampled_from(["psi", "psi_tilde", "exp", "exp_neg"]))
@settings(max_examples=20, deadline=None)
def test_series_and_realization_results_are_reduced(a, b, kind):
    assert_canonical(series_in_op(series_coeffs(kind, 3), a))
    M = OpMatrix(N, [[a, b], [b, WeylOp.zero(N)]])
    phi = matrix_series(series_coeffs(kind, 3), M)
    real = realization_from_phi(kappa_algebra([I, Scalar(1)]), phi)
    for op in [*(op for row in phi.entries for op in row), *real.xhat]:
        assert_canonical(op)


@pytest.fixture(scope="module")
def ctx():
    return make_context(kappa_algebra([I, Scalar(1), Scalar(1, 2)]), 4)


small3 = st.builds(
    lambda t: Polynomial(3, t),
    st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), gaussians, max_size=3),
)


@given(small3, small3, st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_star_path_results_are_reduced(ctx, f, h, mu, nu):
    g = ctx.algebra
    A, B = omega_inv(ctx, f), omega_inv(ctx, h, "dual")
    for M in (A, B, pbw_mul(g, A, PBWElement.generator(3, mu)), omega(ctx, A),
              t_action(g, mu, nu, A), tinv_action(g, mu, nu, A), y_action(g, mu, A)):
        assert_canonical(M)
