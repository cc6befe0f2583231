"""Normal-ordered product of Weyl operators, kept as a test oracle.

The library multiplies only by x-free right factors and takes every
commutator with x from derivatives (`x_free_bracket`, `x_linear_bracket`).
This module keeps the general product so that those can be checked against
an independent normal ordering, itself checked against composed `apply`.
"""

from math import comb, perm

from lieweyl import WeylOp
from lieweyl.poly import merge, mi_degree


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


def commutator(A: WeylOp, B: WeylOp) -> WeylOp:
    return product(A, B) - product(B, A)
