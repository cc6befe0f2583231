"""Bernoulli numbers and truncated scalar power series.

The Bernoulli recurrence is the independent oracle for every coefficient of
the generating functions psi(t) = t/(1 - e^{-t}) and
psi_tilde(t) = e^{-t} psi(t) = t/(e^t - 1).
"""

from __future__ import annotations

from math import comb

from .poly import merge
from .scalars import Q, Scalar

__all__ = ["bernoulli", "TruncSeries", "BiTruncSeries", "series_coeffs"]

_bernoulli_cache = [Q(1)]


def bernoulli(k: int, convention: str = "minus"):
    """Bernoulli number B_k as an exact rational.

    convention="minus" gives B_1 = -1/2; convention="plus" gives the
    variant with B_1 = +1/2 (all other values coincide).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if convention not in ("minus", "plus"):
        raise ValueError(f"unknown convention {convention!r}")
    while len(_bernoulli_cache) <= k:
        m = len(_bernoulli_cache)
        # sum_{j=0}^{m} binom(m+1, j) B_j = 0
        s = sum(comb(m + 1, j) * _bernoulli_cache[j] for j in range(m))
        _bernoulli_cache.append(-s / Q(m + 1))
    b = _bernoulli_cache[k]
    if convention == "plus" and k == 1:
        return -b
    return b


class TruncSeries:
    """Univariate power series truncated at total degree `order` (inclusive).

    Coefficients are Scalars; arithmetic is exact through the common order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Scalar.coerce(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k]

    def __eq__(self, other):
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        return TruncSeries(self.coeffs[: order + 1])

    def _common(self, other):
        n = min(self.order, other.order)
        return n, self.coeffs, other.coeffs

    def __add__(self, other):
        n, a, b = self._common(other)
        return TruncSeries([a[k] + b[k] for k in range(n + 1)])

    def __sub__(self, other):
        n, a, b = self._common(other)
        return TruncSeries([a[k] - b[k] for k in range(n + 1)])

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            s = Scalar.coerce(other)
            return TruncSeries([c * s for c in self.coeffs])
        n, a, b = self._common(other)
        out = [Scalar(0)] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(n + 1 - i):
                if b[j]:
                    out[i + j] = out[i + j] + ai * b[j]
        return TruncSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Divide by a series with invertible (nonzero) constant term."""
        n, a, b = self._common(other)
        if not b[0]:
            raise ZeroDivisionError("divisor has zero constant term")
        out = []
        for k in range(n + 1):
            acc = a[k]
            for j in range(k):
                acc = acc - out[j] * b[k - j]
            out.append(acc / b[0])
        return TruncSeries(out)

    def shift_down(self) -> "TruncSeries":
        """Divide by t; requires zero constant term."""
        if self.coeffs[0]:
            raise ValueError("constant term must vanish")
        if self.order == 0:
            return TruncSeries([Scalar(0)])
        return TruncSeries(self.coeffs[1:])

    def __str__(self):
        parts = [f"{c}*t^{k}" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


def series_coeffs(kind: str, order: int) -> TruncSeries:
    """Standard generating-function series through the given order.

    kinds: psi, psi_tilde, exp, exp_neg, dexp = (e^t - 1)/t and
    dexp_neg = (1 - e^{-t})/t.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    fact = [1] * (order + 2)
    for k in range(1, order + 2):
        fact[k] = fact[k - 1] * k
    if kind == "psi":
        cs = [Q((-1) ** k) * bernoulli(k, "minus") / fact[k] for k in range(order + 1)]
    elif kind == "psi_tilde":
        cs = [Q((-1) ** k) * bernoulli(k, "plus") / fact[k] for k in range(order + 1)]
    elif kind == "exp":
        cs = [Q(1, fact[k]) for k in range(order + 1)]
    elif kind == "exp_neg":
        cs = [Q((-1) ** k, fact[k]) for k in range(order + 1)]
    elif kind == "dexp":
        cs = [Q(1, fact[k + 1]) for k in range(order + 1)]
    elif kind == "dexp_neg":
        cs = [Q((-1) ** k, fact[k + 1]) for k in range(order + 1)]
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    return TruncSeries(cs)


class BiTruncSeries:
    """Bivariate series in (u, v), truncated at total degree `order`."""

    __slots__ = ("terms", "order")

    def __init__(self, terms, order: int):
        self.order = order
        self.terms = {
            k: Scalar.coerce(c)
            for k, c in terms.items()
            if k[0] + k[1] <= order and Scalar.coerce(c)
        }

    @classmethod
    def from_univariate(cls, f: TruncSeries, which: str, order: int):
        """Substitute u, v or u+v for the series variable."""
        f = f.truncate(order)
        terms = {}
        if which == "u":
            terms = {(k, 0): c for k, c in enumerate(f.coeffs)}
        elif which == "v":
            terms = {(0, k): c for k, c in enumerate(f.coeffs)}
        elif which == "u+v":
            for k, c in enumerate(f.coeffs):
                if not c:
                    continue
                for i in range(k + 1):
                    terms[(i, k - i)] = c * comb(k, i)
        else:
            raise ValueError(f"unknown substitution {which!r}")
        return cls(terms, order)

    def __eq__(self, other):
        return (
            isinstance(other, BiTruncSeries)
            and self.order == other.order
            and self.terms == other.terms
        )

    def __add__(self, other):
        order = min(self.order, other.order)
        out = dict(self.terms)
        for k, c in other.terms.items():
            merge(out, k, c)
        return BiTruncSeries(out, order)

    def __sub__(self, other):
        return self + BiTruncSeries(
            {k: -c for k, c in other.terms.items()}, other.order
        )

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                i, j = i1 + i2, j1 + j2
                if i + j > order:
                    continue
                merge(out, (i, j), c1 * c2)
        return BiTruncSeries(out, order)

    def __truediv__(self, other):
        """Divide by a series with nonzero constant term."""
        order = min(self.order, other.order)
        b0 = other.terms.get((0, 0), Scalar(0))
        if not b0:
            raise ZeroDivisionError("divisor has zero constant term")
        out = {}
        # solve degree by degree: out * other = self
        for d in range(order + 1):
            for i in range(d + 1):
                key = (i, d - i)
                acc = self.terms.get(key, Scalar(0))
                for (i1, j1), c1 in out.items():
                    i2, j2 = key[0] - i1, key[1] - j1
                    if i2 < 0 or j2 < 0 or (i2, j2) == (0, 0):
                        continue
                    c2 = other.terms.get((i2, j2))
                    if c2:
                        acc = acc - c1 * c2
                c = acc / b0
                if c:
                    out[key] = c
        return BiTruncSeries(out, order)
