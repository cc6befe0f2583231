"""Truncated semicompleted Weyl algebra: normal-ordered operators x^a d^b.

Operators are polynomial in x and (possibly truncated) power series in the
derivatives d_mu.  Truncation is tracked, never silent: every operator
carries a valid_order and products propagate it by

    valid_order(AB) = min(valid_order(A), valid_order(B)) - xdeg(B),

because commuting a derivative monomial past x^c lowers the derivative
degree by at most |c|.  Exact (untruncated) operators have
valid_order = math.inf.
"""

from __future__ import annotations

import math
from math import comb

from .poly import Polynomial, TermMap, merge, mi_add, mi_degree
from .scalars import Scalar
from .series import TruncSeries

__all__ = ["InsufficientOrder", "WeylOp", "OpMatrix", "matrix_series", "series_in_op"]

INF = math.inf


class InsufficientOrder(Exception):
    """Raised when an operation would need coefficients beyond valid_order."""

    def __init__(self, needed, available):
        self.needed = needed
        self.available = available
        super().__init__(
            f"operation needs derivative order {needed}, "
            f"operator only valid through {available}"
        )


def _falling(c, j):
    out = 1
    for k in range(j):
        out *= c - k
    return out


class WeylOp(TermMap):
    """Normal-ordered operator: {(a, b): coeff} meaning sum c * x^a d^b."""

    __slots__ = ("valid_order",)

    KEY_PARTS = (("x", "x", "x"), ("d", "d", "\\partial"))

    def __init__(self, n: int, terms=None, valid_order=INF):
        self.valid_order = valid_order
        if terms and valid_order < INF:
            terms = {k: c for k, c in terms.items() if mi_degree(k[1]) <= valid_order}
        super().__init__(n, terms)

    def _like(self, terms, valid_order=None):
        out = TermMap._like(self, terms)
        out.valid_order = self.valid_order if valid_order is None else valid_order
        return out

    @staticmethod
    def _split(key):
        return key

    @staticmethod
    def _sort_key(item):
        a, b = item[0]
        return (mi_degree(b), b, a)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, valid_order=INF):
        return cls(n, valid_order=valid_order)

    @classmethod
    def one(cls, n):
        z = (0,) * n
        return cls(n, {(z, z): Scalar(1)})

    @classmethod
    def x(cls, n, mu):
        z = (0,) * n
        a = z[:mu] + (1,) + z[mu + 1 :]
        return cls(n, {(a, z): Scalar(1)})

    @classmethod
    def d(cls, n, mu):
        z = (0,) * n
        b = z[:mu] + (1,) + z[mu + 1 :]
        return cls(n, {(z, b): Scalar(1)})

    @classmethod
    def constant(cls, n, c):
        z = (0,) * n
        return cls(n, {(z, z): Scalar.coerce(c)})

    @classmethod
    def from_json(cls, n, data, valid_order=INF):
        return cls(
            n,
            {
                (tuple(t["x"]), tuple(t["d"])): Scalar.parse(t["coeff"])
                for t in data
            },
            valid_order=valid_order,
        )

    # -- structure ---------------------------------------------------------

    def xdeg(self) -> int:
        return max((mi_degree(a) for a, _ in self.terms), default=0)

    def truncate(self, order) -> "WeylOp":
        return self._like(
            {k: c for k, c in self.terms.items() if mi_degree(k[1]) <= order},
            min(self.valid_order, order),
        )

    def d_part_degree_le(self, order):
        """Terms with derivative degree <= order (for exact comparisons)."""
        return {k: c for k, c in self.terms.items() if mi_degree(k[1]) <= order}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        """Sum, truncated to the lower valid order of the two operands."""
        self._check(other)
        vo = min(self.valid_order, other.valid_order)
        terms = {k: c for k, c in self.terms.items() if mi_degree(k[1]) <= vo}
        for k, c in other.terms.items():
            if mi_degree(k[1]) <= vo:
                merge(terms, k, c)
        return self._like(terms, vo)

    def __mul__(self, other):
        """Normal-ordered product with tracked truncation."""
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        self._check(other)
        bxdeg = other.xdeg()
        vo = min(self.valid_order, other.valid_order)
        if vo is not INF:
            vo = max(vo - bxdeg, 0)
        out = {}
        # bucket B terms by |d| - |c| so pairs that cannot reach the kept
        # degree window are skipped wholesale
        buckets = {}
        for (c_exp, d_exp), cb in other.terms.items():
            k = mi_degree(d_exp) - mi_degree(c_exp)
            buckets.setdefault(k, []).append((c_exp, d_exp, cb))
        bucket_keys = sorted(buckets)
        for (a, b), ca in self.terms.items():
            bdeg = mi_degree(b)
            for bk in bucket_keys:
                # min output derivative degree is |b| + |d| - |c|
                if vo is not INF and bdeg + bk > vo:
                    break
                for c_exp, d_exp, cb in buckets[bk]:
                    coeff = ca * cb
                    _normal_order_term(out, a, b, c_exp, d_exp, coeff, vo)
        return self._like(out, vo)

    def commutator(self, other) -> "WeylOp":
        return self * other - other * self

    def deriv_d(self, lam: int) -> "WeylOp":
        """Formal coefficientwise derivative in the variable d_lam."""
        vo = self.valid_order
        if vo is not INF:
            vo = max(vo - 1, 0)
        terms = {}
        for (a, b), c in self.terms.items():
            e = b[lam]
            if e:
                merge(terms, (a, b[:lam] + (e - 1,) + b[lam + 1 :]), c * e)
        return self._like(terms, vo)

    # -- action on polynomials ----------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """Left action on a polynomial: x acts by multiplication, d by d/dx."""
        if f.n != self.n:
            raise ValueError("dimension mismatch")
        fdeg = f.degree()
        if self.valid_order < fdeg:
            raise InsufficientOrder(fdeg, self.valid_order)
        out = {}
        for exps, fc in f.terms.items():
            for (a, b), c in self.terms.items():
                if any(be > xe for be, xe in zip(b, exps)):
                    continue
                factor = 1
                for be, xe in zip(b, exps):
                    if be:
                        factor *= _falling(xe, be)
                key = mi_add(a, tuple(xe - be for xe, be in zip(exps, b)))
                merge(out, key, fc * c * factor)
        return f._like(out)


def _normal_order_term(out, a, b, c_exp, d_exp, coeff, vo):
    """Accumulate the normal ordering of (x^a d^b)(x^c d^d) into `out`.

    d^b x^c = sum_j prod_mu binom(b_mu, j_mu) c_mu!/(c_mu - j_mu)!
              x^{c - j} d^{b - j}.
    """
    n = len(a)
    # iterate over j with 0 <= j_mu <= min(b_mu, c_mu)
    lims = [min(b[mu], c_exp[mu]) for mu in range(n)]
    j = [0] * n
    while True:
        factor = 1
        for mu in range(n):
            if j[mu]:
                factor *= comb(b[mu], j[mu]) * _falling(c_exp[mu], j[mu])
        new_b = tuple(b[mu] - j[mu] + d_exp[mu] for mu in range(n))
        if mi_degree(new_b) <= vo:
            new_a = tuple(a[mu] + c_exp[mu] - j[mu] for mu in range(n))
            merge(out, (new_a, new_b), coeff * factor)
        # advance the odometer
        for mu in range(n):
            if j[mu] < lims[mu]:
                j[mu] += 1
                break
            j[mu] = 0
        else:
            return


class OpMatrix:
    """Square matrix of WeylOps."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = [list(row) for row in entries]

    @classmethod
    def zero(cls, n, dim=None, valid_order=INF):
        dim = dim or n
        return cls(
            dim, [[WeylOp.zero(n, valid_order) for _ in range(dim)] for _ in range(dim)]
        )

    @classmethod
    def identity(cls, n):
        m = cls.zero(n)
        for k in range(n):
            m.entries[k][k] = WeylOp.one(n)
        return m

    def __getitem__(self, key):
        mu, nu = key
        return self.entries[mu][nu]

    def valid_order(self):
        return min(op.valid_order for row in self.entries for op in row)

    def __add__(self, other):
        return OpMatrix(
            self.n,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        return OpMatrix(
            self.n,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __mul__(self, other):
        n = self.n
        out = []
        for mu in range(n):
            row = []
            for nu in range(n):
                acc = self.entries[mu][0] * other.entries[0][nu]
                for al in range(1, n):
                    acc = acc + self.entries[mu][al] * other.entries[al][nu]
                row.append(acc)
            out.append(row)
        return OpMatrix(n, out)

    def scale(self, c) -> "OpMatrix":
        return OpMatrix(self.n, [[op.scale(c) for op in row] for row in self.entries])

    def truncate(self, order) -> "OpMatrix":
        return OpMatrix(
            self.n, [[op.truncate(order) for op in row] for row in self.entries]
        )

    def __eq__(self, other):
        return isinstance(other, OpMatrix) and self.entries == other.entries

    def agrees_through(self, other, order) -> bool:
        """Entrywise equality of all coefficients with derivative degree <= order."""
        for ra, rb in zip(self.entries, other.entries):
            for a, b in zip(ra, rb):
                if a.d_part_degree_le(order) != b.d_part_degree_le(order):
                    return False
        return True

    def to_json(self):
        return [[op.to_json() for op in row] for row in self.entries]


def matrix_series(f: TruncSeries, M: OpMatrix) -> OpMatrix:
    """Evaluate sum_k f_k M^k, exact through derivative degree order(f).

    Requires every entry of M to be x-free with vanishing constant term, so
    M^k has minimum derivative degree k and the truncation is exact.
    """
    for row in M.entries:
        for op in row:
            for (a, b), _ in op.terms.items():
                if mi_degree(a) != 0 or mi_degree(b) == 0:
                    raise ValueError(
                        "matrix_series requires x-free entries with zero constant term"
                    )
    order = f.order
    n = M.n
    amb = M.entries[0][0].n
    acc = OpMatrix.zero(amb, n)
    power = OpMatrix(
        n,
        [
            [WeylOp.one(amb) if i == j else WeylOp.zero(amb) for j in range(n)]
            for i in range(n)
        ],
    )
    for k in range(order + 1):
        if f[k]:
            acc = acc + power.scale(f[k])
        if k < order:
            power = (power * M).truncate(order)
    out = acc.truncate(order)
    for row in out.entries:
        for op in row:
            op.valid_order = order
    return out


def series_in_op(f: TruncSeries, A: WeylOp) -> WeylOp:
    """Evaluate a univariate series at an x-free operator with zero constant term."""
    for (a, b), _ in A.terms.items():
        if mi_degree(a) != 0 or mi_degree(b) == 0:
            raise ValueError("series_in_op requires an x-free, constant-free operator")
    order = f.order
    amb = A.n
    acc = WeylOp.zero(amb, valid_order=order)
    power = WeylOp.one(amb)
    for k in range(order + 1):
        if f[k]:
            acc = acc + power.scale(f[k]).truncate(order)
        if k < order:
            power = (power * A).truncate(order)
    acc = acc.truncate(order)
    acc.valid_order = order
    return acc
