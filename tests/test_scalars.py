from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieweyl import I, ONE, ZERO, Scalar

rationals = st.fractions(max_denominator=50)
scalars = st.builds(lambda a, b: Scalar(a, b), rationals, rationals)


def test_parse_forms():
    assert Scalar.parse("3/4") == Scalar(3) / Scalar(4)
    assert Scalar.parse("-2") == Scalar(-2)
    assert Scalar.parse("1/2+1/3i") == Scalar(1, 0) / 2 + I / 3
    assert Scalar.parse("1/2-1/3i") == Scalar(1, 0) / 2 - I / 3
    assert Scalar.parse("i") == I
    assert Scalar.parse("-i") == -I
    assert Scalar.parse("2i") == I * 2
    assert Scalar.parse("−1/2") == Scalar(-1) / 2  # unicode minus


@pytest.mark.parametrize(
    "bad", ["", "x", "1/2+", "1//2", "1/0", "1e5", "1.5", "1e9999999999", "1/2+1e3i"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        Scalar.parse(bad)


@pytest.mark.parametrize("bad", ["1e9999999999", "1e5", "1.5", "1/0", "2i", "x"])
def test_constructor_reads_text_as_parse_does(bad):
    # a text part goes through Scalar.parse, so an exponent is never expanded
    for make in (lambda: Scalar(bad), lambda: Scalar(0, bad)):
        with pytest.raises(ValueError):
            make()
    assert Scalar("-3/4", "1/2") == Scalar(Fraction(-3, 4), Fraction(1, 2))


@given(scalars)
def test_str_roundtrip(s):
    assert Scalar.parse(str(s)) == s


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(scalars)
def test_inverse(a):
    assert a - a == ZERO
    if a:
        assert a / a == ONE
        assert a * (ONE / a) == ONE


@pytest.mark.parametrize(
    "make",
    [lambda: Scalar(0.1), lambda: Scalar(1, 0.5), lambda: Scalar.coerce(0.1)],
    ids=["re", "im", "coerce"],
)
def test_floats_are_rejected(make):
    # 0.1 is not 1/10: a float would enter as its binary expansion
    with pytest.raises(TypeError):
        make()


def test_complex_arithmetic():
    assert I * I == Scalar(-1)
    assert (ONE + I) * (ONE - I) == Scalar(2)
    assert (ONE + I).conjugate() == ONE - I
    assert ONE / I == -I


def test_immutability_and_hash():
    s = Scalar(1, 2)
    with pytest.raises(AttributeError):
        s.re = 5
    assert hash(Scalar(1, 2)) == hash(Scalar(1, 2))


@given(st.integers(-(2**70), 2**70) | st.fractions())
@settings(max_examples=50)
def test_real_scalar_equals_and_hashes_as_its_value(x):
    # equal objects hash alike, so a real Scalar and its int or Fraction are
    # one set element and one dict key
    s = Scalar(x)
    assert s == x and x == s and hash(s) == hash(x)
    assert len({s, x}) == 1 and {x: 1}[s] == 1
    assert s != x + 1 and Scalar(x, 1) != x
    # a Scalar is not its text
    assert s != str(s) and str(s) != s


def test_scalar_equality_contract():
    assert len({Scalar(1), 1}) == 1
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar(1) != "1" and Scalar(0) != "0"
    assert Scalar(1, 1) != 1 and hash(Scalar(1, 1)) == hash((Fraction(1), Fraction(1)))


def test_pow():
    assert (I + 1) ** 2 == I * 2
    assert Scalar(2) ** -2 == Scalar(1) / 4
    assert Scalar(7) ** 0 == ONE


# -- an independent reference: Gaussian rationals as (re, im) Fraction pairs ----

big = st.integers(-(2**80), 2**80)
small = st.integers(-12, 12)
fracs = st.builds(Fraction, big | small, st.integers(1, 2**80) | st.integers(1, 12))
reals = st.builds(lambda q: (q, Fraction(0)), fracs)
imaginaries = st.builds(lambda q: (Fraction(0), q), fracs)
pairs = reals | imaginaries | st.tuples(fracs, fracs)
ints = big | small


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_str(x):
    re, im = x
    if not im:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def lift(k):
    return (Fraction(k), Fraction(0))


def value(s):
    """The (re, im) pair of a Scalar, after checking its normal form."""
    for num, den in ((s._a, s._b), (s._c, s._d)):
        assert type(num) is int and type(den) is int
        assert den > 0 and gcd(num, den) == 1
        if num == 0:
            assert den == 1
    assert type(s.re) is Fraction and type(s.im) is Fraction
    return (s.re, s.im)


def assert_same(s, x):
    assert value(s) == x
    assert str(s) == ref_str(x)
    # a real Scalar hashes as its Fraction, any other as its (re, im) pair
    assert hash(s) == hash(x if x[1] else x[0])
    assert bool(s) == any(x)
    assert s == Scalar(*x)


@example(((Fraction(2**70 + 1, 3**45), Fraction(0)), (Fraction(0), Fraction(-(5**33), 2**67 - 1))))
@example(((Fraction(1, 2), Fraction(1, 3)), (Fraction(0), Fraction(-7, 2))))
@given(st.tuples(pairs, pairs))
def test_scalar_ops_match_reference(xy):
    x, y = xy
    s, t = Scalar(*x), Scalar(*y)
    assert_same(s, x)
    assert_same(-s, (-x[0], -x[1]))
    assert_same(s + t, ref_add(x, y))
    assert_same(s - t, ref_add(x, (-y[0], -y[1])))
    assert_same(s * t, ref_mul(x, y))
    assert (s == t) == (x == y)
    if any(y):
        assert_same(s / t, ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            s / t


# an operand beside a Scalar: an int or a Fraction on either side, or the
# text of a Fraction on the right
operands = ints | fracs | st.builds(str, fracs)


@example((Fraction(3, 2**65), Fraction(-(2**66), 7)), 2**64 + 3)
@example((Fraction(0), Fraction(5, 9)), 0)
@example((Fraction(1, 2), Fraction(1, 3)), Fraction(-7, 2**70))
@example((Fraction(0), Fraction(0)), "0")
@example((Fraction(-4, 9), Fraction(2, 3)), "-3/2")
@given(pairs, operands)
def test_scalar_int_ops_match_reference(x, k):
    s, q = Scalar(*x), lift(Fraction(k))
    cases = [
        (s + k, ref_add(x, q)),
        (s - k, ref_add(x, (-q[0], -q[1]))),
        (s * k, ref_mul(x, q)),
    ]
    text = isinstance(k, str)
    if not text:
        cases += [
            (k + s, ref_add(q, x)),
            (k - s, ref_add(q, (-x[0], -x[1]))),
            (k * s, ref_mul(q, x)),
        ]
        assert (s == k) == (x == q)
    for got, want in cases:
        assert_same(got, want)
    if any(q):
        assert_same(s / k, ref_div(x, q))
    else:
        with pytest.raises(ZeroDivisionError):
            s / k
    if text:
        return
    if any(x):
        assert_same(k / s, ref_div(q, x))
    else:
        with pytest.raises(ZeroDivisionError):
            k / s


@given(pairs, st.integers(-5, 7))
def test_scalar_pow_matches_reference(x, k):
    want = lift(1)
    for _ in range(abs(k)):
        want = ref_mul(want, x)
    if k >= 0:
        assert_same(Scalar(*x) ** k, want)
    elif any(x):
        assert_same(Scalar(*x) ** k, ref_div(lift(1), want))
    else:
        with pytest.raises(ZeroDivisionError):
            Scalar(*x) ** k


def test_division_by_imaginary_units():
    assert_same(Scalar(3, 4) / Scalar(0, -2), (Fraction(-2), Fraction(3, 2)))
    assert_same(Scalar(Fraction(1, 2**70)) / Scalar(0, 2**70), (Fraction(0), Fraction(-1, 2**140)))
