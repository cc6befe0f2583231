"""Sparse term maps over the Gaussian rationals, and polynomials in x_1..x_n.

Every object the engine computes is a map from exponent keys to exact
coefficients: polynomials in x, normal-ordered Weyl operators x^a d^b and
PBW monomials in U(g).  `TermMap` owns that map and its invariants (keys are
tuples, no zero coefficient is stored); `merge` is the one accumulation step
that every product loop uses.  Multi-indices are plain tuples of
non-negative ints.
"""

from __future__ import annotations

import re

from .scalars import ONE, Scalar

__all__ = [
    "MultiIndex",
    "mi_add",
    "mi_degree",
    "mi_unit",
    "merge",
    "TermMap",
    "Polynomial",
    "parse_polynomial",
]

MultiIndex = tuple


def mi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mi_degree(a) -> int:
    return sum(a)


def mi_unit(n: int, mu: int):
    """The exponent vector of x_mu (0-based)."""
    return tuple(1 if k == mu else 0 for k in range(n))


def merge(dst: dict, key, coeff):
    """Add coeff to dst[key], dropping the entry when the sum vanishes."""
    s = dst.get(key)
    s = coeff if s is None else s + coeff
    if s:
        dst[key] = s
    else:
        dst.pop(key, None)


# -- rendering ------------------------------------------------------------------


def _latex_rat(q) -> str:
    num, den = str(q).split("/") if "/" in str(q) else (str(q), "1")
    if den == "1":
        return num
    sign = "-" if num.startswith("-") else ""
    return f"{sign}\\frac{{{num.lstrip('-')}}}{{{den}}}"


def _latex_scalar(c: Scalar, wrap: bool) -> str:
    if not c.im:
        return _latex_rat(c.re)
    if not c.re:
        r = _latex_rat(c.im)
        return "i" if r == "1" else "-i" if r == "-1" else f"{r}i"
    im = _latex_rat(abs(c.im))
    body = f"{_latex_rat(c.re)} {'+' if c.im > 0 else '-'} {im}i"
    return f"\\left({body}\\right)" if wrap else body


def _text_scalar(c: Scalar, wrap: bool) -> str:
    s = str(c)
    return f"({s})" if wrap and c.re and c.im else s


# coefficient formatter, factor template, power template, factor separator;
# `wrap` asks for a coefficient with real and imaginary parts to be bracketed
_TEXT = (_text_scalar, "{}{}", "^{}", "*")
_LATEX = (_latex_scalar, "{}_{{{}}}", "^{{{}}}", " ")
_MINUS_ONE = -ONE


class TermMap:
    """Sparse map {key: nonzero Scalar} in n variables.

    A key is one exponent tuple, or a tuple of them for operators; subclasses
    describe each part of a key in KEY_PARTS as (JSON field, text symbol,
    LaTeX symbol) and split a key into those parts with `_split`.
    """

    __slots__ = ("n", "terms")

    KEY_PARTS = (("exps", "x", "x"),)

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = Scalar.coerce(c)
                if c:
                    merge(self.terms, tuple(k), c)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(0,) * n: Scalar(1)})

    def _like(self, terms):
        """A map of the same kind and dimension holding `terms` as given."""
        out = object.__new__(type(self))
        out.n = self.n
        out.terms = terms
        return out

    @staticmethod
    def _split(key):
        return (key,)

    @staticmethod
    def _sort_key(item):
        return (mi_degree(item[0]), item[0])

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree over all parts of the keys; -1 for the zero map."""
        split = self._split
        return max((sum(map(mi_degree, split(k))) for k in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            merge(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Scalar.coerce(c)
        return self._like({k: v * c for k, v in self.terms.items()} if c else {})

    __rmul__ = scale

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=self._sort_key)

    def render(self, latex: bool = False) -> str:
        """Sum of "coefficient factors" terms in sorted order, as text or LaTeX."""
        if not self.terms:
            return "0"
        coeff, factor, power, sep = _LATEX if latex else _TEXT
        parts = []
        for k, c in self.sorted_terms():
            factors = sep.join(
                factor.format(latex_sym if latex else sym, mu + 1)
                + (power.format(e) if e > 1 else "")
                for (_, sym, latex_sym), exps in zip(self.KEY_PARTS, self._split(k))
                for mu, e in enumerate(exps)
                if e
            )
            if not factors:
                parts.append(coeff(c, False))
            elif c == ONE:
                parts.append(factors)
            elif c == _MINUS_ONE:
                parts.append("-" + factors)
            else:
                parts.append(coeff(c, True) + sep + factors)
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.render()

    __repr__ = __str__

    def to_json(self):
        out = []
        for k, c in self.sorted_terms():
            parts = zip(self.KEY_PARTS, self._split(k))
            term = {field: list(exps) for (field, _, _), exps in parts}
            term["coeff"] = str(c)
            out.append(term)
        return out


class Polynomial(TermMap):
    """Finite linear combination of monomials x^a with Scalar coefficients."""

    __slots__ = ()

    # bound in the class body so that Polynomial's own namespace holds every
    # arithmetic entry point (bench/tracer.py wraps them by name)
    __add__ = TermMap.__add__
    __sub__ = TermMap.__sub__
    scale = TermMap.scale

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, n, mu):
        return cls(n, {mi_unit(n, mu): Scalar(1)})

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: Scalar.coerce(c)})

    @classmethod
    def from_json(cls, n: int, data) -> "Polynomial":
        return cls(n, {tuple(t["exps"]): Scalar.parse(t["coeff"]) for t in data})

    # -- structure and arithmetic --------------------------------------------

    def homogeneous_part(self, d: int) -> "Polynomial":
        return self._like({k: c for k, c in self.terms.items() if mi_degree(k) == d})

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(Scalar.coerce(other))
        self._check(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                merge(out, mi_add(k1, k2), c1 * c2)
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        out = Polynomial.one(self.n)
        for _ in range(m):
            out = out * self
        return out

    def partial(self, mu: int) -> "Polynomial":
        """Partial derivative with respect to x_mu (0-based)."""
        out = {}
        for k, c in self.terms.items():
            e = k[mu]
            if e:
                merge(out, k[:mu] + (e - 1,) + k[mu + 1 :], c * e)
        return self._like(out)


_FACTOR = re.compile(r"^(?:x(\d+))(?:\^(\d+))?$")


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse text such as "x1*x2 + 1/2*x2 - 3" (also accepts "·" for "*")."""
    s = text.replace("·", "*").replace("−", "-").replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms at top level (no parentheses supported except
    # none are emitted for real coefficients)
    terms = []
    buf = ""
    for ch in s:
        if ch in "+-" and buf and buf[-1] not in "+-*/(":
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    out = Polynomial.zero(n)
    for term in terms:
        coeff = Scalar(1)
        exps = [0] * n
        for factor in term.lstrip("+").split("*"):
            if factor == "":
                raise ValueError(f"malformed term {term!r} in {text!r}")
            neg = False
            while factor.startswith("-"):
                neg = not neg
                factor = factor[1:]
            m = _FACTOR.match(factor)
            if m:
                mu = int(m.group(1))
                if not 1 <= mu <= n:
                    raise ValueError(f"variable x{mu} out of range 1..{n}")
                exps[mu - 1] += int(m.group(2) or 1)
            else:
                coeff = coeff * Scalar.parse(factor)
            if neg:
                coeff = -coeff
        out = out + Polynomial(n, {tuple(exps): coeff})
    return out
