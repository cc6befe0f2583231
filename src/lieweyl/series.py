"""Bernoulli numbers and the univariate series that `matrix_series` sums.

The Bernoulli recurrence is the independent oracle for every coefficient of
the generating functions psi(t) = t/(1 - e^{-t}) and
psi_tilde(t) = e^{-t} psi(t) = t/(e^t - 1).  Their reciprocals are the kinds
dexp_neg = 1/psi and dexp = 1/psi_tilde.  A series in several variables is an
x-free `WeylOp` in the derivatives (see `kappa._weights`).
"""

from __future__ import annotations

from math import comb

from .scalars import Q, Scalar, as_scalar

__all__ = ["bernoulli", "TruncSeries", "series_coeffs"]

_bernoulli_cache = [Q(1)]


def bernoulli(k: int):
    """Bernoulli number B_k as an exact rational, with B_1 = -1/2."""
    if k < 0:
        raise ValueError("k must be non-negative")
    while len(_bernoulli_cache) <= k:
        m = len(_bernoulli_cache)
        # sum_{j=0}^{m} binom(m+1, j) B_j = 0
        s = sum(comb(m + 1, j) * _bernoulli_cache[j] for j in range(m))
        _bernoulli_cache.append(-s / Q(m + 1))
    return _bernoulli_cache[k]


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
        if not isinstance(other, TruncSeries):
            s = as_scalar(other)
            if s is None:
                return NotImplemented
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
        cs = [Q((-1) ** k) * bernoulli(k) / fact[k] for k in range(order + 1)]
    elif kind == "psi_tilde":
        cs = [bernoulli(k) / fact[k] for k in range(order + 1)]
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


# Not a type of its own: bench/tracer.py still wraps series.BiTruncSeries by
# name, until the next change to the benchmark drops it (ROADMAP item 6).
BiTruncSeries = TruncSeries
