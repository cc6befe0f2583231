"""Exact Gaussian-rational scalars.

Every coefficient in the engine is a complex number with rational real and
imaginary parts.  No floating point is used anywhere.  A `Scalar` holds its
two parts as plain ints in lowest terms; each arithmetic operator applies
one Gaussian-rational formula to the four int parts and reduces each part by
one gcd.  `Q` (`fractions.Fraction`) is the rational type of the public
`re`/`im` parts, of the series coefficients and of parsing.

Scalars enter the engine only at its edges: parsed and random inputs,
structure constants, series coefficients, and rendering.  Term maps
(poly.py) store no Scalars but Gaussian-integer numerators over one
denominator: `numerators` converts Scalars where they enter, and
`from_numerators` reads a coefficient back out.  A real Scalar equals, and
hashes as, the int or Fraction of its value.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from math import gcd, lcm

__all__ = ["Q", "Scalar", "ZERO", "ONE", "MINUS_ONE", "I",
           "as_scalar", "numerators", "from_numerators"]


def _lowest(p, q):
    """p/q in lowest terms, for q > 0."""
    g = gcd(p, q)
    return p // g, q // g


def _ratio(v):
    if type(v) is int:
        return v, 1
    if type(v) is Q:
        return v.numerator, v.denominator  # already in lowest terms
    if isinstance(v, float):
        raise TypeError(f"float {v!r} is not an exact scalar")
    if isinstance(v, str) and not (s := Scalar.parse(v))._c:
        return s._a, s._b  # parse refuses an exponent, which Q would expand
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

    __slots__ = ("_a", "_b", "_c", "_d")

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
        Every part is an integer or an integer fraction: a decimal point or
        an exponent ("1.5", "1e5") raises ValueError.
        """
        if not isinstance(text, str):
            raise ValueError(f"scalar {text!r} is not a string")
        s = text.strip().replace("−", "-").replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        # only integers and "/" reach Fraction, which would expand an exponent
        # such as "1e9999999999" into a power of ten
        if not re.fullmatch(r"[0-9/+-]*[iI]?", s):
            raise ValueError(f"malformed scalar {text!r}")
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
        other = Scalar.coerce(other)
        a, b, c, d = self._a, self._b, self._c, self._d
        e, f, g, h = other._a, other._b, other._c, other._d
        return _new(*_lowest(a * f + e * b, b * f), *_lowest(c * h + g * d, d * h))

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.coerce(other)
        a, b, c, d = self._a, self._b, self._c, self._d
        e, f, g, h = other._a, other._b, other._c, other._d
        return _new(*_lowest(a * f - e * b, b * f), *_lowest(c * h - g * d, d * h))

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return _new(-self._a, self._b, -self._c, self._d)

    def __mul__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self._a, self._b, self._c, self._d
        e, f, g, h = other._a, other._b, other._c, other._d
        # (a/b + ic/d)(e/f + ig/h) over the common denominator bdfh
        den = b * d * f * h
        return _new(*_lowest(a * e * d * h - c * g * b * f, den),
                    *_lowest(a * g * d * f + c * e * b * h, den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        a, b, c, d = self._a, self._b, self._c, self._d
        e, f, g, h = other._a, other._b, other._c, other._d
        # multiply by the conjugate and divide by the norm N/(fh)^2, N > 0
        norm = e * e * h * h + g * g * f * f
        if not norm:
            raise ZeroDivisionError("Scalar division by zero")
        den = b * d * norm
        return _new(*_lowest((a * e * d * h + c * g * b * f) * f * h, den),
                    *_lowest((c * e * b * h - a * g * d * f) * f * h, den))

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
        if isinstance(other, (int, Q)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._c == other._c and self._d == other._d)

    def __hash__(self):
        # a real Scalar hashes as its Fraction, so as an int when integral
        return hash((self.re, self.im) if self._c else self.re)

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
    """(den, [re, ...], [im, ...]): the Scalars `coeffs` (a sequence, read
    three times) as Gaussian-integer numerators over their least common
    denominator den, which are in lowest terms together with it."""
    den = 1
    for s in coeffs:
        if den % s._b:
            den = lcm(den, s._b)
        if den % s._d:
            den = lcm(den, s._d)
    return (den, [s._a * (den // s._b) for s in coeffs],
            [s._c * (den // s._d) for s in coeffs])


def from_numerators(re: int, im: int, den: int) -> Scalar:
    """The Scalar (re + im*i)/den in lowest terms, for den > 0."""
    return _new(*_lowest(re, den), *_lowest(im, den))


def _imag_part(body: str):
    if body in ("", "+"):
        return 1
    if body == "-":
        return -1
    return Q(body)


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)
