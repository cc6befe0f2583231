"""Sparse term maps over the Gaussian rationals, and polynomials in x_1..x_n.

Every object the engine computes is a map from exponent keys to exact
coefficients: polynomials in x, normal-ordered Weyl operators x^a d^b and
PBW monomials in U(g).  A `TermMap` stores one thing, its numerator form
(den, ((key, re, im), ...)) with coefficients (re + im i)/den, in lowest
terms: den > 0, gcd(den, every numerator) = 1, no zero row, den = 1 for
the zero map.  The star path's memos store the same forms, and `.terms`
builds a {key: Scalar} dict on demand, for the edges.  A key is a
multi-index (a tuple of ints), or a pair of them for operators; `TermMap`
builds, reads and orders keys from a type's KEY_PARTS, `_split` and
`_join`.  Every constant, unit and linear form is one `TermMap._linear`,
and the product by one variable is one relabel, `TermMap._raise`.

Every producer works on the ints and ends in the one gcd reduction,
`reduce_form`.  `linear_form` forms every sum of scaled forms in one pass;
`product_terms` is the one product kernel, for operators and polynomials.
Each factor keeps its keys packed into ints of little-endian byte-aligned
fields, one struct pack each (x in the low fields, d or a polynomial's x in
the high ones), so a product key is one int addition and one unpack, and
a derivative's key one subtraction (`_derivatives`).
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd, inf, lcm
from struct import Struct, error as struct_error

from .scalars import MINUS_ONE, ONE, Scalar, as_scalar, from_numerators, numerators

__all__ = [
    "reduce_form",
    "linear_form",
    "product_terms",
    "TermMap",
    "Polynomial",
    "parse_polynomial",
]


def reduce_form(den, rows) -> tuple:
    """(den, rows), whose rows hold no zero, divided by the gcd of den and every
    numerator, so numbers cannot grow along a chain of forms built from each
    other; den is 1 when there is no row.  The rows come back as a tuple."""
    g = den
    for _, p, q in rows:
        if g == 1:
            break
        g = gcd(g, p, q)
    if g > 1:
        return den // g, tuple([(k, p // g, q // g) for k, p, q in rows])
    return den, tuple(rows)


def linear_form(items) -> tuple:
    """sum_k c_k M_k as a reduced form, over items (u, v, d, M): c_k = (u + v i)/d
    with d > 0, and M_k a form, whose rows may be any sequence.  The parts
    accumulate as ints over one common denominator; a key whose sum vanishes
    is absent."""
    den, parts = 1, []
    for u, v, d, (dm, rows) in items:
        d *= dm
        den = lcm(den, d)
        parts.append((u, v, d, rows))
    acc = {}  # key -> [re, im] numerators over den
    get = acc.get
    for p, q, d, rows in parts:
        m = den // d
        p *= m
        q *= m
        for k, r, s in rows:
            t = get(k)
            if t is None:
                acc[k] = [p * r - q * s, p * s + q * r]
            else:
                t[0] += p * r - q * s
                t[1] += p * s + q * r
    return reduce_form(den, [(k, p, q) for k, (p, q) in acc.items() if p or q])


@cache
def _fields(count, width):
    """The Struct of `count` little-endian fields of `width` (8, 16, 32 or 64) bits,
    which packs and unpacks a key's fields as bytes."""
    if width > 64:
        raise OverflowError("an exponent or twice a degree past 64 bits")
    return Struct(f"<{count}{'BHIQ'[width.bit_length() - 4]}")


def _packed(M, width=8):
    """M's packed keys, at least `width` bits wide: (width, den, rows sorted by
    degree as (degree, packed key, re, im), x-free), built from M's form and
    kept.  A new layout takes the least width of 8, 16, 32 or 64 bits that
    holds M's largest exponent and twice its largest degree."""
    packed = M._packed
    if packed is not None and packed[0] >= width:
        return packed
    den, rows = M.form
    pack, from_bytes = _fields(M.n * len(M.KEY_PARTS), width).pack, int.from_bytes
    try:
        if M.KEY_PARTS[1:]:  # the x fields lead; the degree is of the d fields
            rows = sorted([(sum(b), from_bytes(pack(*a, *b), "little"), p, q)
                           for (a, b), p, q in rows])
        else:
            rows = sorted([(sum(k), from_bytes(pack(*k), "little"), p, q) for k, p, q in rows])
    except struct_error:  # an exponent past the width
        return _packed(M, 2 * width)
    if rows and rows[-1][0] * 2 >> width:
        return _packed(M, 2 * width)
    return _keep(M, width, den, rows)._packed


def _keep(M, width, den, rows):
    """M, with (width, den, rows, x-free) kept as its layout."""
    low = (1 << M.n * (len(M.KEY_PARTS) - 1) * width) - 1
    M._packed = (width, den, rows, not any(r[1] & low for r in rows))
    return M


def _derivatives(M, *like):
    """M's derivatives in each field of its last key part (d for an operator), as
    M._like(form, *like), from M's packed layout: a row with e > 0 in the field
    becomes (degree - 1, key - unit, e p, e q), still in degree order, and the
    rows are kept as the derivative's layout beside the form unpacked from them."""
    width, den, rows, _ = _packed(M)
    s, join, n, mask = _fields(M.n * len(M.KEY_PARTS), width), M._join, M.n, (1 << width) - 1
    out = []
    for shift in range((len(M.KEY_PARTS) - 1) * n * width, len(M.KEY_PARTS) * n * width, width):
        drows = [(d - 1, k - (1 << shift), p * e, q * e) for d, k, p, q in rows
                 if (e := k >> shift & mask)]
        form = reduce_form(den, [(join(s.unpack(k.to_bytes(s.size, "little")), n), p, q)
                                 for _, k, p, q in drows])
        if form[0] != den:
            g = den // form[0]
            drows = [(d, k, p // g, q // g) for d, k, p, q in drows]
        out.append(_keep(M._like(form, *like), width, form[0], drows))
    return out


def product_terms(items, cap=inf) -> tuple:
    """The reduced form of sum_k c_k A_k B_k over the (A_k, B_k) or (A_k, B_k, c_k)
    items of one TermMap type (TypeError otherwise), each c_k a Scalar (1 when
    absent) and each B_k x-free, keeping the product terms of degree <= cap.
    Each factor is read through its packed keys; the call runs at the widest
    layout among its factors, which holds every exponent and every
    deg A + deg B, so no field of a sum of keys carries, and a narrower layout
    is rebuilt at that width.  The result's keys are unpacked at the end."""
    items = list(items)
    if not items:
        return 1, ()
    first = items[0][0]
    n, kind, width, den, live, consts = first.n, type(first), 8, 1, [], {}
    for item in items:
        A, B = item[0], item[1]
        if type(A) is not kind or type(B) is not kind:
            raise TypeError(f"a product of {kind.__name__}s has a factor of another type")
        if A.n != n or B.n != n:
            raise ValueError(f"dimension mismatch: {A.n}, {B.n} vs {n}")
        if A.form[1] and B.form[1]:
            # a right factor is more often stored, so its width goes first
            pb = _packed(B, width)
            if not pb[3]:
                raise ValueError("the right factor of a product must be x-free")
            pa = _packed(A, pb[0])
            width = pa[0]
            d, u, v = pa[1] * pb[1], 1, 0
            if len(item) > 2:
                # each constant's numerators are taken once per call
                nc = consts.get(id(item[2]))
                if nc is None:
                    nc = consts[id(item[2])] = numerators(item[2:])
                dc, (u,), (v,) = nc
                d *= dc
            if den % d:
                den = lcm(den, d)
            live.append((A, pa, B, pb, d, u, v))
    acc = {}  # packed key -> [re, im] numerators over den
    get = acc.get
    for A, pa, B, pb, d, u, v in live:
        m = den // d
        u *= m
        v *= m
        # a layout stored at the call's width is read as it is
        rb = pb[2] if pb[0] == width else _packed(B, width)[2]
        ra = pa[2] if pa[0] == width else _packed(A, width)[2]
        for dega, ka, p, q in ra:
            room = cap - dega
            p, q = p * u - q * v, p * v + q * u
            for degb, kb, r, s in rb:
                if degb > room:
                    break
                key = ka + kb
                t = get(key)
                if t is None:
                    acc[key] = [p * r - q * s, p * s + q * r]
                else:
                    t[0] += p * r - q * s
                    t[1] += p * s + q * r
    join, s = first._join, _fields(n * len(first.KEY_PARTS), width)
    unpack, size = s.unpack, s.size
    return reduce_form(den, [
        (join(unpack(k.to_bytes(size, "little")), n), p, q)
        for k, (p, q) in acc.items() if p or q
    ])


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
    body = f"{_latex_rat(c.re)} {'+' if c.im > 0 else '-'} {'' if im == '1' else im}i"
    return f"\\left({body}\\right)" if wrap else body


def _text_scalar(c: Scalar, wrap: bool) -> str:
    s = str(c) if c.re else f"{c.im}i"
    return f"({s})" if wrap and c.im else s


# coefficient formatter, factor template, power template, factor separator;
# `wrap`: a factor follows, so bracket a coefficient that would read ambiguously
_TEXT = (_text_scalar, "{}{}", "^{}", "*")
_LATEX = (_latex_scalar, "{}_{{{}}}", "^{{{}}}", " ")


class TermMap:
    """Sparse map {key: nonzero Gaussian rational} in n variables, stored as its
    reduced numerator form `form` = (den, ((key, re, im), ...)).

    A key is one exponent tuple, or a tuple of them for operators; subclasses
    describe each part of a key in KEY_PARTS as (JSON field, text symbol,
    LaTeX symbol) and split a key into those parts with `_split`.
    """

    __slots__ = ("n", "form", "_packed")

    KEY_PARTS = (("exps", "x", "x"),)

    def __init__(self, n: int, terms=None):
        # numerators of lowest-terms Scalars over their lcm are in lowest terms
        terms = terms or {}
        den, res, ims = numerators([Scalar.coerce(c) for c in terms.values()])
        self.n = n
        rows = [(tuple(k), p, q) for k, p, q in zip(terms, res, ims) if p or q]
        self.form = den, tuple(rows)
        self._packed = None

    @classmethod
    def _linear(cls, n, coeffs, field=None, *rest):
        """sum_k coeffs[k] times the key whose flat fields are all 0 but a 1 at
        field + k, or coeffs[0] times the zero key when `field` is None; `rest`
        goes to the constructor (an operator's valid order)."""
        z = (0,) * (n * len(cls.KEY_PARTS))
        if field is None:
            return cls(n, {cls._join(z, n): coeffs[0]}, *rest)
        return cls(n, {cls._join(z[:f] + (1,) + z[f + 1 :], n): c
                       for f, c in enumerate(coeffs, field)}, *rest)

    @classmethod
    def zero(cls, n, *rest):
        return cls._linear(n, [0], None, *rest)

    @classmethod
    def one(cls, n):
        return cls._linear(n, [1])

    @classmethod
    def constant(cls, n, c):
        return cls._linear(n, [c])

    @classmethod
    def from_json(cls, n, data, **kw):
        """The map that `to_json` wrote, read one tuple per key part: the parts are
        never flattened, so a part of the wrong length stays visible, and a key
        listed twice raises ValueError (`to_json` writes each once)."""
        keys = [tuple(tuple(t[field]) for field, _, _ in cls.KEY_PARTS) for t in data]
        terms = dict(zip(keys if cls.KEY_PARTS[1:] else [k[0] for k in keys],
                         [Scalar.parse(t["coeff"]) for t in data]))
        if len(terms) < len(keys):
            raise ValueError("a key is listed twice")
        return cls(n, terms, **kw)

    def _like(self, form):
        """A map of the same kind and dimension holding the reduced `form`."""
        out = object.__new__(type(self))
        out.n = self.n
        out.form = form
        out._packed = None
        return out

    @property
    def terms(self) -> dict:
        """A new {key: Scalar} dict of the map."""
        den, rows = self.form
        return {k: from_numerators(p, q, den) for k, p, q in rows}

    @staticmethod
    def _split(key):
        return (key,)

    @staticmethod
    def _join(fields, n):
        """The key whose `_split` parts, concatenated, are the tuple `fields`."""
        return fields

    def _sort_key(self, item):
        """A (key, coefficient) item's place: the degree of the key's last part,
        then that part, then the rest."""
        *rest, last = self._split(item[0])
        return sum(last), last, *rest

    def _raise(self, mu, cut=inf):
        """The map times the variable at field mu of the first key part, keeping the
        keys whose last part has degree <= cut; an operator keeps its valid order."""
        den, rows = self.form
        if self.KEY_PARTS[1:]:  # an (x, d) key; rows of one x-part share its raised one
            up = {}
            kept = [((up.get(a) or up.setdefault(a, a[:mu] + (a[mu] + 1,) + a[mu + 1 :]), b), p, q)
                    for (a, b), p, q in rows if sum(b) <= cut]
        else:
            kept = [(k[:mu] + (k[mu] + 1,) + k[mu + 1 :], p, q)
                    for k, p, q in rows if sum(k) <= cut]
        # a form that lost no key is still reduced
        return self._like(reduce_form(den, kept) if len(kept) < len(rows) else (den, tuple(kept)))

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree of the (one-part) keys; -1 for the zero map."""
        return max([sum(r[0]) for r in self.form[1]], default=-1)

    def is_zero(self) -> bool:
        return not self.form[1]

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"{type(self).__name__} and {type(other).__name__} do not add")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return self._like(linear_form(((1, 0, 1, self.form), (1, 0, 1, other.form))))

    def __sub__(self, other):
        self._check(other)
        return self._like(linear_form(((1, 0, 1, self.form), (-1, 0, 1, other.form))))

    def __neg__(self):
        den, rows = self.form
        return self._like((den, tuple([(k, -p, -q) for k, p, q in rows])))

    def scale(self, c):
        dc, (u,), (v,) = numerators([Scalar.coerce(c)])
        return self._like(linear_form(((u, v, dc, self.form),)))

    def _scale_by(self, other):
        """self.scale(other) for a scalar operand; NotImplemented otherwise."""
        c = as_scalar(other)
        return NotImplemented if c is None else self.scale(c)

    __rmul__ = _scale_by

    def __eq__(self, other):
        # a reduced form is canonical up to the order of its rows
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.form[0] == other.form[0]
            and set(self.form[1]) == set(other.form[1])
        )

    def __hash__(self):
        return hash((self.n, self.form[0], frozenset(self.form[1])))

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=self._sort_key)

    def render(self, latex: bool = False) -> str:
        """Sum of "coefficient factors" terms in sorted order, as text or LaTeX."""
        if not self.form[1]:
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
            elif c == MINUS_ONE:
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
    """Finite linear combination of monomials x^a with Gaussian-rational coefficients."""

    __slots__ = ()

    # bound in the class body so that Polynomial's own namespace holds every
    # arithmetic entry point (bench/tracer.py wraps them by name)
    __add__ = TermMap.__add__
    __sub__ = TermMap.__sub__
    scale = TermMap.scale

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, n, mu):
        return cls._linear(n, [1], mu)

    # -- structure and arithmetic --------------------------------------------

    def homogeneous_part(self, d: int) -> "Polynomial":
        den, rows = self.form
        return self._like(reduce_form(den, [r for r in rows if sum(r[0]) == d]))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self._scale_by(other)
        self._check(other)
        return self._like(product_terms(((self, other),)))

    __rmul__ = __mul__

    def partial(self, mu: int) -> "Polynomial":
        """Partial derivative with respect to x_mu (0-based)."""
        den, rows = self.form
        return self._like(reduce_form(den, [
            (k[:mu] + (e - 1,) + k[mu + 1 :], p * e, q * e)
            for k, p, q in rows
            if (e := k[mu])
        ]))


_FACTOR = re.compile(r"^(?:x(\d+))(?:\^(\d+))?$")


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse text such as "x1*x2 + 1/2*x2 - 3" (also accepts "·" for "*").

    A coefficient factor may sit in one pair of parentheses, as `render`
    writes a Gaussian one: "(1/2+1/2i)*x1".
    """
    s = text.replace("·", "*").replace("−", "-").replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms outside parentheses
    terms = []
    buf = ""
    depth = 0
    for ch in s:
        if ch in "+-" and not depth and buf and buf[-1] not in "+-*/(":
            terms.append(buf)
            buf = ch
        else:
            depth += (ch == "(") - (ch == ")")
            if depth < 0:
                break
            buf += ch
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
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
                if factor.startswith("(") and factor.endswith(")"):
                    factor = factor[1:-1]
                coeff = coeff * Scalar.parse(factor)
            if neg:
                coeff = -coeff
        out = out + Polynomial(n, {tuple(exps): coeff})
    return out
