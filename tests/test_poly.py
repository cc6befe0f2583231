from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieweyl import ONE, PBWElement, Polynomial, Scalar, WeylOp, parse_polynomial
from lieweyl.poly import linear_form, product_terms
from lieweyl.scalars import from_numerators, numerators
from normal_order import merge, sympy_poly

N = 3


@st.composite
def polys(draw, n=N, max_degree=3, max_terms=4, gaussian=False):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(n))
        im = draw(st.fractions(max_denominator=9)) if gaussian else 0
        terms[exps] = Scalar(draw(st.fractions(max_denominator=9)), im)
    return Polynomial(n, terms)


@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Polynomial.zero(N) == f
    assert f * Polynomial.one(N) == f


@given(polys(gaussian=True), polys(gaussian=True), st.integers(0, N - 1))
@settings(max_examples=50, deadline=None)
def test_product_and_partial_against_sympy(f, g, mu):
    # sympy's expand and diff share no code with Polynomial.__mul__ or partial
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{N + 1}")
    F, G = sympy_poly(f, xs), sympy_poly(g, xs)
    assert sympy.expand(sympy_poly(f * g, xs) - F * G) == 0
    assert sympy.expand(sympy_poly(f.partial(mu), xs) - sympy.diff(F, xs[mu])) == 0


@given(
    polys(n=2, max_degree=64, max_terms=3, gaussian=True),
    polys(n=2, max_degree=64, max_terms=3, gaussian=True),
    st.sampled_from([(31, 0), (33, 31), (64, 1), (40, 40), (130, 0), (200, 7)]),
)
@settings(max_examples=40, deadline=None)
def test_product_with_exponents_past_each_field_width_against_sympy(f, g, e):
    # the product's packed fields are 8 bits wide for a degree below 128 and
    # 16 bits past it; f is multiplied again after a wider product, through
    # its widened form
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1:3")
    h = Polynomial(2, {e: Scalar(1, 2)})
    for right in (g, h, g):
        got = sympy_poly(f * right, xs)
        assert sympy.expand(got - sympy_poly(f, xs) * sympy_poly(right, xs)) == 0
    x40 = Polynomial(1, {(40,): ONE})
    assert (x40 * x40).terms == {(80,): ONE}


def test_product_past_64_bit_fields_raises_overflow():
    # a packed key's fields are at most 64 bits wide: a product whose degree
    # needs more is refused, never wrapped
    x1 = Polynomial(1, {(1,): ONE})
    assert (Polynomial(1, {(2**62,): ONE}) * x1).terms == {(2**62 + 1,): ONE}
    for e in (2**63, 2**64):
        with pytest.raises(OverflowError):
            Polynomial(1, {(e,): ONE}) * x1


@given(polys())
def test_homogeneous_decomposition(f):
    total = Polynomial.zero(N)
    for d in range(f.degree() + 1):
        part = f.homogeneous_part(d)
        for exps, _ in part.terms.items():
            assert sum(exps) == d
        total = total + part
    assert total == f


@given(polys())
def test_partial_commutes(f):
    assert f.partial(0).partial(1) == f.partial(1).partial(0)


def test_partial_leibniz():
    x = Polynomial.variable(N, 0)
    y = Polynomial.variable(N, 1)
    f = x * x * y
    assert f.partial(0) == x * y * Polynomial.constant(N, 2)
    assert f.partial(1) == x * x
    assert f.partial(2).is_zero()


def test_parse():
    f = parse_polynomial("x1*x2 + 1/2*x2 - 3", 2)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    expected = x1 * x2 + x2.scale(Scalar(1) / 2) - Polynomial.constant(2, 3)
    assert f == expected
    # power notation and unicode dot/minus
    assert parse_polynomial("x1^2", 2) == x1 * x1
    assert parse_polynomial("x1·x2 − x2", 2) == x1 * x2 - x2


def test_parse_rejects():
    with pytest.raises(ValueError, match="empty polynomial"):
        parse_polynomial("  ", 2)
    with pytest.raises(ValueError):
        parse_polynomial("x5", 2)
    with pytest.raises(ValueError):
        parse_polynomial("x1 +* x2", 2)
    # unbalanced or doubled parentheses, and a bracketed variable
    for text in ("(1/2*x1", "1/2)*x1", "(1/2))*(x1", "((1/2))*x1", "(x1)"):
        with pytest.raises(ValueError):
            parse_polynomial(text, 2)


@given(polys())
def test_str_roundtrip(f):
    assert parse_polynomial(str(f), N) == f


@given(polys(gaussian=True))
@example(Polynomial(N, {(1, 0, 0): Scalar.parse("1/2+1/2i")}))
@example(Polynomial(N, {(1, 0, 0): Scalar.parse("-1/2i"), (0, 0, 0): Scalar.parse("1/3i")}))
def test_render_roundtrip_gaussian(f):
    # render brackets every non-real coefficient: "(1/2+1/2i)*x1", "(-1/2i)*x1"
    assert parse_polynomial(f.render(), N) == f


@pytest.mark.parametrize(
    "text,rendered",
    [
        ("1/2+1i", "(1/2+1i)*x1"),
        ("-3-1/2i", "(-3-1/2i)*x1"),
        ("1/2i", "(1/2i)*x1"),
        ("-1i", "(-1i)*x1"),
        ("-3/4", "-3/4*x1"),
    ],
)
def test_text_brackets_non_real_coefficient(text, rendered):
    # a purely imaginary coefficient drops its zero real part ("1/2i", not
    # "0+1/2i"), and a bracket keeps "1/2i*x1" from reading as 1/(2i x1)
    assert Polynomial(1, {(1,): Scalar.parse(text)}).render() == rendered
    assert Polynomial(1, {(0,): Scalar.parse(text)}).render() == text


@given(polys())
def test_json_roundtrip(f):
    assert Polynomial.from_json(N, f.to_json()) == f


@pytest.mark.parametrize(
    "text,latex",
    [
        ("1/2+1i", "\\left(\\frac{1}{2} + i\\right)"),
        ("1/2-1i", "\\left(\\frac{1}{2} - i\\right)"),
        ("-3+1i", "\\left(-3 + i\\right)"),
        ("-3-1i", "\\left(-3 - i\\right)"),
        ("1/2+2i", "\\left(\\frac{1}{2} + 2i\\right)"),
        ("1i", "i"),
        ("-1i", "-i"),
    ],
)
def test_latex_unit_imaginary_part(text, latex):
    # the coefficient of x1, bracketed when it has both parts
    f = Polynomial(1, {(1,): Scalar.parse(text)})
    assert f.render(latex=True) == f"{latex} x_{{1}}"


# Gaussian rationals, some with denominators far past a machine word, zero
# parts included
wide = st.fractions(max_denominator=9) | st.builds(
    Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**90)
)
gaussians = st.builds(Scalar, wide, wide | st.just(0))
term_dicts = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    gaussians.filter(bool),
    max_size=4,
)


@given(st.lists(st.tuples(gaussians, term_dicts), max_size=4), st.booleans())
@example([], False)
@example([(ONE, {})], False)
@example([(ONE, {(1, 0): Scalar(Fraction(1, 3), 2)})], True)
@example([(Scalar(2), {(0, 1): ONE}), (ONE, {(0, 1): Scalar(-2), (1, 1): ONE})], False)
def test_linear_form_is_the_merged_sum_of_scalar_products(pairs, cancel):
    if cancel and pairs:
        c, M = pairs[0]
        pairs.append((-c, M))
    expected = {}
    for c, M in pairs:
        for k, v in M.items():
            merge(expected, k, c * v)
    items = []
    for c, M in pairs:
        dc, (u,), (v,) = numerators([c])
        items.append((u, v, dc, Polynomial(2, M).form))
    den, rows = linear_form(items)
    # reduced, and a key whose sum cancels is absent, not stored as a zero row
    assert den > 0 and gcd(den, *(x for _, p, q in rows for x in (p, q))) == 1
    assert all(p or q for _, p, q in rows) and len({k for k, _, _ in rows}) == len(rows)
    assert {k: from_numerators(p, q, den) for k, p, q in rows} == expected


def test_product_terms_rejects_factors_of_another_type():
    x1, d1, X1 = Polynomial.variable(2, 0), WeylOp.d(2, 0), PBWElement.generator(2, 0)
    for items in ([(x1, x1), (d1, d1)], [(x1, X1)], [(d1, x1)]):
        with pytest.raises(TypeError):
            product_terms(items)
    with pytest.raises(TypeError):
        x1 + X1


@pytest.mark.parametrize("kind", [Polynomial, PBWElement, WeylOp])
def test_term_map_constructors_and_json_share_one_key_shape(kind):
    # zero, one, constant and from_json come from TermMap for every key shape
    n, half = 2, Scalar(1) / 2
    z = (0,) * (n * len(kind.KEY_PARTS))
    key = kind._join(z, n)
    assert kind.zero(n).form == (1, ()) and kind.one(n).terms == {key: ONE}
    assert kind.constant(n, half).terms == {key: half}
    unit = kind._monomial(n, 3, n * len(kind.KEY_PARTS) - 1)
    assert unit.terms == {kind._join(z[:-1] + (1,), n): Scalar(3)}
    f = unit + kind.constant(n, half)
    assert kind.from_json(n, f.to_json()) == f
    assert [t["coeff"] for t in f.to_json()] == ["1/2", "3"]
    if kind is WeylOp:
        assert WeylOp.zero(n, 3).valid_order == 3
        assert WeylOp.from_json(n, f.to_json(), valid_order=0) == f.truncate(0)
