"""Test oracles: the normal-ordered product of Weyl operators, a one-add-
per-term `merge`, the sum of two operators over `Fraction` pairs, the PBW
product by straightening generator words over `Fraction` pairs, the unit
exponent vectors `mi_unit`, and polynomials as sympy expressions.

The library multiplies only by x-free right factors and takes every
commutator with x from derivatives (`x_free_bracket`, `x_linear_bracket`).
This module keeps the general product so that those can be checked against
an independent normal ordering, itself checked against composed `apply`.
It accumulates with its own `merge`, one Scalar add per term, and `added`
with its own `Fraction` arithmetic, and shares no accumulation code with
the library.  `pbw_product` rewrites whole words with a work list at their
last descent, where the library memoizes words and splits at the first.  `sympy_poly` hands a polynomial to
sympy, whose expand and diff share no code with the library at all.
"""

from fractions import Fraction
from math import comb, perm

from lieweyl import Scalar, WeylOp


def mi_unit(n: int, mu: int):
    """The exponent vector of x_mu (0-based), spelled here so that the oracles
    build their keys without the library's `TermMap._linear`."""
    return tuple(1 if k == mu else 0 for k in range(n))


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
            if sum(b) + sum(e) - sum(c) > vo:
                continue
            terms = [((), (), 1)]
            for p, q, r, s in zip(a, b, c, e):
                terms = [
                    (x + (p + r - j,), d + (q - j + s,), k * comb(q, j) * perm(r, j))
                    for x, d, k in terms
                    for j in range(min(q, r) + 1)
                ]
            for x, d, k in terms:
                if sum(d) <= vo:
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
            if sum(b) <= vo:
                re, im = acc.get((a, b), (Fraction(0), Fraction(0)))
                acc[a, b] = (re + s * c.re, im + s * c.im)
    terms = {k: Scalar(re, im) for k, (re, im) in acc.items() if re or im}
    return WeylOp(A.n, terms, valid_order=vo)


def commutator(A: WeylOp, B: WeylOp) -> WeylOp:
    return added(product(A, B), product(B, A), -1)


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gadd(acc, key, x):
    re, im = acc.get(key, (0, 0))
    acc[key] = (re + x[0], im + x[1])


def constants(g):
    """The structure constants of g as (re, im) pairs of Fractions."""
    return [[[(Fraction(x.re), Fraction(x.im)) for x in row] for row in plane] for plane in g.c]


def pbw_product(c, A, B):
    """AB in U(g) on the ordered monomial basis, as {exponents: (re, im)}.

    c[mu][nu][lam] is (re, im) of C_{mu nu lam}, and A and B map exponent
    tuples to (re, im) pairs of Fractions.  A word X_w1 ... X_wk with a
    descent a = w_i > w_(i+1) = b at its last one is replaced by the word with
    X_b X_a there plus sum_lam C_{a b lam} times the word with X_lam there,
    until every word is ordered.
    """
    n = len(c)
    todo, out = {}, {}
    for a, ca in A.items():
        for b, cb in B.items():
            word = tuple(mu for mu in range(n) for _ in range(a[mu]))
            word += tuple(mu for mu in range(n) for _ in range(b[mu]))
            _gadd(todo, word, _gmul(ca, cb))
    while todo:
        w, x = todo.popitem()
        if not any(x):
            continue
        descents = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not descents:
            _gadd(out, tuple(w.count(mu) for mu in range(n)), x)
            continue
        i = descents[-1]
        a, b = w[i], w[i + 1]
        _gadd(todo, w[:i] + (b, a) + w[i + 2 :], x)
        for lam in range(n):
            if any(c[a][b][lam]):
                _gadd(todo, w[:i] + (lam,) + w[i + 2 :], _gmul(x, c[a][b][lam]))
    return {k: v for k, v in out.items() if any(v)}


def sympy_poly(f, xs):
    """f as a sympy expression in the symbols xs."""
    import sympy

    return sympy.Add(*(
        (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))
        * sympy.Mul(*(x**e for x, e in zip(xs, k)))
        for k, c in f.terms.items()
    ))
