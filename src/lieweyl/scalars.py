"""Exact Gaussian-rational scalars.

Every coefficient in the engine is a complex number with rational real and
imaginary parts.  No floating point is used anywhere.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q  # noqa: N811 - much faster than Fraction
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

__all__ = ["Q", "Scalar", "ZERO", "ONE", "I"]


class Scalar:
    """A Gaussian rational: re + im*i with exact rational parts.

    Immutable.  Arithmetic is exact; division by zero raises
    ZeroDivisionError.
    """

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Q(re))
        object.__setattr__(self, "im", Q(im))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def coerce(v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if isinstance(v, str):
            return Scalar.parse(v)
        return Scalar(v)

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q", "p/q+r/si" or a pure-imaginary "r/si" form.

        Accepts unicode minus and "·"-free plain text; whitespace ignored.
        """
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
                        return Scalar(_q(body[:k]), _imag_part(body[k:]))
                return Scalar(0, _imag_part(body))
            return Scalar(_q(s), 0)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed scalar {text!r}") from exc

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = Scalar.coerce(other)
        if not self.im and not other.im:
            return Scalar(self.re * other.re, 0)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if not other.im:
            return Scalar(self.re / other.re, self.im / other.re)
        d = other.re * other.re + other.im * other.im
        return Scalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

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
        return Scalar(self.re, -self.im)

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
        if isinstance(other, (int, str)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.re, self.im))
            object.__setattr__(self, "_hash", h)
        return h

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"Scalar({self})"


def _q(text: str):
    # gmpy2.mpq rejects a leading "+"
    return Q(text[1:]) if text.startswith("+") else Q(text)


def _imag_part(body: str):
    if body in ("", "+"):
        return Q(1)
    if body == "-":
        return Q(-1)
    return _q(body)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
