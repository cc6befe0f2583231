"""Test oracles: the normal-ordered product of Weyl operators, a one-add-
per-term `merge`, the sum of two operators over `Fraction` pairs, and
polynomials as sympy expressions.

The library multiplies only by x-free right factors and takes every
commutator with x from derivatives (`x_free_bracket`, `x_linear_bracket`).
This module keeps the general product so that those can be checked against
an independent normal ordering, itself checked against composed `apply`.
It accumulates with its own `merge`, one Scalar add per term, and `added`
with its own `Fraction` arithmetic, and shares no accumulation code with
the library.  `sympy_poly` hands a polynomial to
sympy, whose expand and diff share no code with the library at all.
"""

from fractions import Fraction
from math import comb, perm

from lieweyl import Scalar, WeylOp
from lieweyl.poly import mi_degree


def merge(dst: dict, key, coeff):
    """Add coeff to dst[key], dropping the entry when the sum vanishes."""
    s = dst.get(key)
    s = coeff if s is None else s + coeff
    if s:
        dst[key] = s
    else:
        dst.pop(key, None)


def product(A: WeylOp, B: WeylOp) -> WeylOp:
    """Normal-ordered product AB with tracked truncation.

    (x^a d^b)(x^c d^e) expands one coordinate at a time by the Leibniz rule
    d^q x^r = sum_j binom(q, j) r!/(r - j)! x^(r - j) d^(q - j).  Commuting a
    derivative monomial past x^c lowers its degree by at most |c|, so

        valid_order(AB) = min(valid_order(A), valid_order(B)) - xdeg(B).
    """
    vo = min(A.valid_order, B.valid_order) - B.xdeg()
    out = {}
    for (a, b), ca in A.terms.items():
        for (c, e), cb in B.terms.items():
            # every term of the pair has derivative degree at least this
            if mi_degree(b) + mi_degree(e) - mi_degree(c) > vo:
                continue
            terms = [((), (), 1)]
            for p, q, r, s in zip(a, b, c, e):
                terms = [
                    (x + (p + r - j,), d + (q - j + s,), k * comb(q, j) * perm(r, j))
                    for x, d, k in terms
                    for j in range(min(q, r) + 1)
                ]
            for x, d, k in terms:
                if mi_degree(d) <= vo:
                    merge(out, (x, d), ca * cb * k)
    return WeylOp(A.n, out, valid_order=vo)


def added(A: WeylOp, B: WeylOp, sign=1) -> WeylOp:
    """A + sign * B: each operand's terms cut at the lower valid order of the
    two, and the coefficients added as (re, im) pairs of Fractions."""
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    vo = min(A.valid_order, B.valid_order)
    acc = {}
    for op, s in ((A, 1), (B, sign)):
        for (a, b), c in op.terms.items():
            if mi_degree(b) <= vo:
                re, im = acc.get((a, b), (Fraction(0), Fraction(0)))
                acc[a, b] = (re + s * c.re, im + s * c.im)
    terms = {k: Scalar(re, im) for k, (re, im) in acc.items() if re or im}
    return WeylOp(A.n, terms, valid_order=vo)


def commutator(A: WeylOp, B: WeylOp) -> WeylOp:
    return added(product(A, B), product(B, A), -1)


def sympy_poly(f, xs):
    """f as a sympy expression in the symbols xs."""
    import sympy

    return sympy.Add(*(
        (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))
        * sympy.Mul(*(x**e for x, e in zip(xs, k)))
        for k, c in f.terms.items()
    ))
