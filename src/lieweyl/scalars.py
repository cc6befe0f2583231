"""Exact Gaussian-rational scalars.

Every coefficient in the engine is a complex number with rational real and
imaginary parts.  No floating point is used anywhere.  A `Scalar` holds its
two parts as plain ints in lowest terms, and multiplies and adds them with
Henrici's gcd tricks (Knuth, TAOCP vol. 2, section 4.5.1), so no gcd is taken
of a full product.  `Q` (`fractions.Fraction`) is the rational type of the
public `re`/`im` parts, of the series coefficients and of parsing.

Loops that sum many products (`weyl.sum_of_products`) skip the per-product
normalisation: `numerators` writes Scalars as Gaussian-integer numerators
over one common denominator, and `from_numerators` normalises a result once.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm

__all__ = ["Q", "Scalar", "ZERO", "ONE", "I", "as_scalar", "numerators", "from_numerators"]


def _mul(p, q, r, s):
    """p/q * r/s in lowest terms, from lowest-terms operands."""
    g = gcd(p, s)
    h = gcd(r, q)
    return (p // g) * (r // h), (q // h) * (s // g)


def _add(p, q, r, s):
    """p/q + r/s in lowest terms, from lowest-terms operands."""
    g = gcd(q, s)
    if g == 1:
        return p * s + r * q, q * s
    q //= g
    t = p * (s // g) + r * q
    h = gcd(t, g)
    return t // h, q * (s // h)


def _ratio(v):
    if type(v) is int:
        return v, 1
    if isinstance(v, float):
        raise TypeError(f"float {v!r} is not an exact scalar")
    v = Q(v)
    return v.numerator, v.denominator


def _str(p, q):
    return str(p) if q == 1 else f"{p}/{q}"


_alloc = object.__new__


def _new(a, b, c, d):
    """The Scalar a/b + (c/d)i from parts already in lowest terms, no checks."""
    s = _alloc(Scalar)
    s._a = a
    s._b = b
    s._c = c
    s._d = d
    return s


class Scalar:
    """A Gaussian rational: re + im*i with exact rational parts.

    Immutable.  re = _a/_b and im = _c/_d with _b, _d > 0, each pair coprime
    and zero stored as 0/1, so equal values have equal fields.  Arithmetic is
    exact; division by zero raises ZeroDivisionError.
    """

    __slots__ = ("_a", "_b", "_c", "_d", "_hash")

    def __init__(self, re=0, im=0):
        self._a, self._b = _ratio(re)
        self._c, self._d = _ratio(im)

    @property
    def re(self) -> Q:
        return Q(self._a, self._b)

    @property
    def im(self) -> Q:
        return Q(self._c, self._d)

    # -- construction ------------------------------------------------------

    @staticmethod
    def coerce(v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if type(v) is int:
            return _new(v, 1, 0, 1)
        if isinstance(v, str):
            return Scalar.parse(v)
        return Scalar(v)

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q", "p/q+r/si" or a pure-imaginary "r/si" form.

        Accepts unicode minus and "·"-free plain text; whitespace ignored.
        """
        if not isinstance(text, str):
            raise ValueError(f"scalar {text!r} is not a string")
        s = text.strip().replace("−", "-").replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        try:
            if s.endswith("i") or s.endswith("I"):
                body = s[:-1]
                # split at the last top-level sign (signs never occur inside
                # an integer fraction "p/q")
                for k in range(len(body) - 1, 0, -1):
                    if body[k] in "+-":
                        return Scalar(Q(body[:k]), _imag_part(body[k:]))
                return Scalar(0, _imag_part(body))
            return Scalar(Q(s), 0)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed scalar {text!r}") from exc

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is int:
            return _new(self._a + other * self._b, self._b, self._c, self._d)
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        c, g = self._c, other._c
        if not g:
            return _new(*_add(self._a, self._b, other._a, other._b), c, self._d)
        return _new(*_add(self._a, self._b, other._a, other._b),
                    *_add(c, self._d, g, other._d))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return _new(self._a - other * self._b, self._b, self._c, self._d)
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        c, g = self._c, other._c
        if not g:
            return _new(*_add(self._a, self._b, -other._a, other._b), c, self._d)
        return _new(*_add(self._a, self._b, -other._a, other._b),
                    *_add(c, self._d, -g, other._d))

    def __rsub__(self, other):
        if type(other) is int:
            return _new(other * self._b - self._a, self._b, -self._c, self._d)
        return Scalar.coerce(other) - self

    def __neg__(self):
        return _new(-self._a, self._b, -self._c, self._d)

    def __mul__(self, other):
        a, b, c, d = self._a, self._b, self._c, self._d
        if type(other) is int:
            if other == 1:
                return self
            g = gcd(other, b)
            if not c:
                return _new(a * (other // g), b // g, 0, 1)
            h = gcd(other, d)
            return _new(a * (other // g), b // g, c * (other // h), d // h)
        if type(other) is not Scalar:
            other = as_scalar(other)
            if other is None:
                return NotImplemented
        e, f, g, h = other._a, other._b, other._c, other._d
        if not g:
            if not c:
                return _new(*_mul(a, b, e, f), 0, 1)
            return _new(*_mul(a, b, e, f), *_mul(c, d, e, f))
        if not c:
            return _new(*_mul(a, b, e, f), *_mul(a, b, g, h))
        return _new(*_add(*_mul(a, b, e, f), *_mul(-c, d, g, h)),
                    *_add(*_mul(a, b, g, h), *_mul(c, d, e, f)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        e, f, g, h = other._a, other._b, other._c, other._d
        if not g:
            if not e:
                raise ZeroDivisionError("Scalar division by zero")
            # multiply by f/e with the sign moved to the numerator
            f, e = (f, e) if e > 0 else (-f, -e)
            return _new(*_mul(self._a, self._b, f, e), *_mul(self._c, self._d, f, e))
        # multiply by the conjugate, then divide by the norm n/m > 0
        n, m = _add(e * e, f * f, g * g, h * h)
        a, b, c, d = self._a, self._b, self._c, self._d
        re = _add(*_mul(a, b, e, f), *_mul(c, d, g, h))
        im = _add(*_mul(c, d, e, f), *_mul(-a, b, g, h))
        return _new(*_mul(*re, m, n), *_mul(*im, m, n))

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return Scalar(1) / self ** (-k)
        out = Scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Scalar":
        return _new(self._a, self._b, -self._c, self._d)

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self._a or self._c)

    def __eq__(self, other):
        if isinstance(other, (int, str)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._c == other._c and self._d == other._d)

    def __hash__(self):
        # equal to the hash of the (re, im) pair of Fractions
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.re, self.im))
            return self._hash

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        re = _str(self._a, self._b)
        if not self._c:
            return re
        return f"{re}{'+' if self._c > 0 else '-'}{_str(abs(self._c), self._d)}i"

    def __repr__(self):
        return f"Scalar({self})"


def as_scalar(v):
    """`Scalar.coerce(v)`, or None when v is not a scalar operand."""
    try:
        return Scalar.coerce(v)
    except (TypeError, ValueError):
        return None


def numerators(coeffs):
    """(den, [(re, im), ...]): the Scalars `coeffs` (a list or a dict view,
    read twice) as Gaussian-integer numerators over their least common
    denominator den."""
    den = 1
    for s in coeffs:
        if den % s._b:
            den = lcm(den, s._b)
        if den % s._d:
            den = lcm(den, s._d)
    return den, [(s._a * (den // s._b), s._c * (den // s._d)) for s in coeffs]


def from_numerators(re: int, im: int, den: int) -> Scalar:
    """The Scalar (re + im*i)/den in lowest terms, for den > 0."""
    g = gcd(re, den)
    h = gcd(im, den)
    return _new(re // g, den // g, im // h, den // h)


def _imag_part(body: str):
    if body in ("", "+"):
        return 1
    if body == "-":
        return -1
    return Q(body)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
