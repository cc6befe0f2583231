"""Truncated semicompleted Weyl algebra: normal-ordered operators x^a d^b.

Operators are polynomial in x and (possibly truncated) power series in the
derivatives d_mu.  Truncation is tracked, never silent: every operator
carries a valid_order.  Exact (untruncated) operators have
valid_order = math.inf.

The only product is `sum_of_products`: sum_k A_k B_k for x-free right
factors B_k, so no product needs reordering, (x^a d^b)(d^e) = x^a d^(b+e).
It runs the kernel `poly.product_terms` on each operator's numerator form,
with its keys packed into ints.  Its valid order is the least valid order
of all the factors and of an optional cap, as if the products were formed
one by one and added; it is the one place a product is cut, and `A * B`
is its one-pair case.  `A + B` and `A - B` are the term map's sums, cut at
the lower valid order of the two operands.  Keys, constructors, JSON and
term order all come from `poly.TermMap`: x^a d^b is stored under the flat
key a + b, and the pair (a, b) exists only at the edges, where the
constructor checks that a and b each hold n exponents.  An operator adds
only its valid order, its products and its action.  `matrix_series` takes
matrices linear in d and reads their powers, homogeneous and uncut, from
the chain an `OpMatrix` keeps (`OpMatrix.powers`), each formed once and
extended on demand.  `deriv_d`
forms the derivatives from the packed keys and keeps them as their layout;
`apply` reads only the d-parts b <= e of each row x^e of the polynomial.
`deriv_d` lowers the order by one, so the commutators with x formed from it
(realization.py) are certified through N - 1 for operators valid through N.
The rule is never clamped: a negative valid_order certifies no coefficient
at all, not even the constant term, and `apply` then raises
InsufficientOrder for every polynomial.
"""

from __future__ import annotations

import math
from itertools import product
from math import perm, prod
from operator import add, le, sub

from .poly import Polynomial, TermMap, _derivatives, linear_form, product_terms, reduce_form
from .scalars import numerators
from .series import TruncSeries

__all__ = [
    "InsufficientOrder",
    "WeylOp",
    "OpMatrix",
    "sum_of_products",
    "matrix_series",
    "series_in_op",
]

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


class WeylOp(TermMap):
    """Normal-ordered operator: {(a, b): coeff} meaning sum c * x^a d^b."""

    __slots__ = ("valid_order", "_derivs", "_by_b")

    KEY_PARTS = (("x", "x", "x"), ("d", "d", "\\partial"))

    def __init__(self, n: int, terms=None, valid_order=INF):
        """{(a, b): coeff} through |b| <= valid_order; a, b must hold n ints each."""
        self.valid_order = valid_order
        flat = {}
        for (a, b), c in (terms or {}).items():
            if len(a) != n or len(b) != n:
                raise ValueError(f"exponents must be {n} per key part, not {len(a)} and {len(b)}")
            if valid_order == INF or sum(b) <= valid_order:
                flat[(*a, *b)] = c
        super().__init__(n, flat)

    def _like(self, form, valid_order=None):
        out = TermMap._like(self, form)
        out.valid_order = self.valid_order if valid_order is None else valid_order
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def x(cls, n, mu):
        return cls._linear(n, [1], mu)

    @classmethod
    def d(cls, n, mu):
        return cls._linear(n, [1], n + mu)

    # -- structure ---------------------------------------------------------

    def xdeg(self) -> int:
        return max((sum(k[: self.n]) for k, _, _ in self.form[1]), default=0)

    def truncate(self, order) -> "WeylOp":
        (den, rows), n = self.form, self.n
        return self._like(reduce_form(den, [r for r in rows if sum(r[0][n:]) <= order]),
                          min(self.valid_order, order))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        """self + other, cut at the lower valid order of the two."""
        return TermMap.__add__(self, other).truncate(min(self.valid_order, other.valid_order))

    def __sub__(self, other):
        return TermMap.__sub__(self, other).truncate(min(self.valid_order, other.valid_order))

    def __mul__(self, other):
        """Product by an x-free right factor, or by a scalar."""
        if isinstance(other, WeylOp):
            return sum_of_products(((self, other),))
        return self._scale_by(other)

    def deriv_d(self, lam: int) -> "WeylOp":
        """Formal coefficientwise derivative in the variable d_lam.  The suites
        take each one many times, so all n are formed at the first call, from
        the packed layout (`poly._derivatives`), and each keeps its rows as
        its own layout."""
        try:
            return self._derivs[lam]
        except AttributeError:
            self._derivs = _derivatives(self, self.valid_order - 1)
        return self._derivs[lam]

    # -- action on polynomials ----------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """Left action on a polynomial: x acts by multiplication, d by d/dx.
        x^a d^b sends x^e to e!/(e - b)! x^(a + e - b) if b <= e, else to 0, so
        a row x^e of f reads the rows (indexed by b once) of its divisors b, or
        scans the distinct b when the divisors outnumber them."""
        if f.n != self.n:
            raise ValueError("dimension mismatch")
        fdeg = f.degree()
        if self.valid_order < fdeg:
            raise InsufficientOrder(fdeg, self.valid_order)
        try:
            by_b = self._by_b
        except AttributeError:
            by_b, n = {}, self.n
            for row in self.form[1]:
                by_b.setdefault(row[0][n:], []).append(row)
            by_b = self._by_b = {b: tuple(rows) for b, rows in by_b.items()}
        (den, _), (fden, frows) = self.form, f.form
        acc = {}  # key -> [re, im] numerators over den fden
        setdefault = acc.setdefault
        for e, r, s in frows:
            if prod([k + 1 for k in e]) <= len(by_b):
                bs = [b for b in product(*[range(k + 1) for k in e]) if b in by_b]
            else:
                bs = [b for b in by_b if all(map(le, b, e))]
            for b in bs:
                m, c = prod(map(perm, e, b)), tuple(map(sub, e, b))
                u, v = r * m, s * m
                for k, p, q in by_b[b]:
                    # map stops at c's n fields, so it adds c to k's x part
                    t = setdefault(tuple(map(add, k, c)), [0, 0])
                    t[0] += p * u - q * v
                    t[1] += p * v + q * u
        return f._like(reduce_form(den * fden, [(k, p, q) for k, (p, q) in acc.items() if p or q]))


class OpMatrix:
    """Square matrix of WeylOps; it keeps the chain of its powers (`powers`)."""

    __slots__ = ("n", "entries", "_chain")

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = [list(row) for row in entries]

    @classmethod
    def zero(cls, n, dim=None):
        dim = dim or n
        return cls(dim, [[WeylOp.zero(n) for _ in range(dim)] for _ in range(dim)])

    @classmethod
    def identity(cls, n, dim=None):
        m = cls.zero(n, dim)
        for k in range(m.n):
            m.entries[k][k] = WeylOp.one(n)
        return m

    def __getitem__(self, key):
        mu, nu = key
        return self.entries[mu][nu]

    def valid_order(self):
        return min(op.valid_order for row in self.entries for op in row)

    def __mul__(self, other):
        cols = list(zip(*other.entries))
        return OpMatrix(
            self.n,
            [[sum_of_products(zip(row, col)) for col in cols] for row in self.entries],
        )

    def powers(self, k) -> list:
        """[M^0, ..., M^k] from the kept chain, uncut and extended on demand; its
        M^1 is a new matrix over M's operators, so no cycle runs through M."""
        chain = getattr(self, "_chain", None)
        if chain is None:
            chain = self._chain = [OpMatrix.identity(self.entries[0][0].n, self.n),
                                   OpMatrix(self.n, self.entries)]
        while len(chain) <= k:
            chain.append(chain[-1] * chain[1])
        return chain[: k + 1]

    def truncate(self, order) -> "OpMatrix":
        return OpMatrix(
            self.n, [[op.truncate(order) for op in row] for row in self.entries]
        )

    def __eq__(self, other):
        return isinstance(other, OpMatrix) and self.entries == other.entries

    def to_json(self):
        return [[op.to_json() for op in row] for row in self.entries]


def sum_of_products(pairs, valid_order=INF) -> WeylOp:
    """sum_k c_k A_k B_k over the (A_k, B_k) or (A_k, B_k, c_k) items, each
    right factor x-free and each constant c_k a Scalar (1 when absent).

    (x^a d^b)(d^e) = x^a d^(b+e); a right factor with x raises ValueError.
    Formed by the kernel `poly.product_terms`.  The result is valid through
    the least valid order of every factor and of `valid_order`, and keeps no
    term beyond it.  Every product of operators is formed here, `A * B` as
    the one-pair case; sums of operators are not (`A + B` is a term-map sum).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("sum_of_products needs at least one pair")
    vo = min([valid_order, *[M.valid_order for item in pairs for M in item[:2]]])
    return pairs[0][0]._like(product_terms(pairs, vo), vo)


def matrix_series(f: TruncSeries, M: OpMatrix) -> OpMatrix:
    """Evaluate sum_k f_k M^k, exact through derivative degree order(f).

    Requires every entry of M to be x-free and linear in d (each term d^b has
    |b| = 1), so M^k is homogeneous of degree k and the powers up to f's last
    nonzero coefficient, read uncut from M's kept chain, have no term past
    order(f).  An entry is valid through order(f), or less where a power it
    sums is.
    """
    if any(any(k[: op.n]) or sum(k[op.n :]) != 1
           for row in M.entries for op in row for k, _, _ in op.form[1]):
        raise ValueError("matrix_series requires x-free entries linear in d")
    order = f.order
    last = max((k for k in range(order + 1) if f[k]), default=-1)
    dc, us, vs = numerators(f.coeffs[: last + 1])
    terms = [(u, v, P.entries) for u, v, P in zip(us, vs, M.powers(last)) if u or v]
    return OpMatrix(M.n, [[
        M.entries[0][0]._like(linear_form((u, v, dc, P[mu][nu].form) for u, v, P in terms),
                              min([order, *(P[mu][nu].valid_order for _, _, P in terms)]))
        for nu in range(M.n)] for mu in range(M.n)
    ])


def series_in_op(f: TruncSeries, A: WeylOp) -> WeylOp:
    """Evaluate a univariate series at an x-free operator linear in d."""
    return matrix_series(f, OpMatrix(1, [[A]]))[0, 0]
