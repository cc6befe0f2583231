"""Lie algebra structure constants, validation and builders.

Structure constants are stored 0-based internally as c[mu][nu][lam] with
[X_mu, X_nu] = sum_lam c[mu][nu][lam] X_lam.  Serialized files use 1-based
indices.
"""

from __future__ import annotations

import json
from itertools import product

from .scalars import Scalar, numerators

__all__ = [
    "LieAlgebra",
    "KappaAlgebra",
    "validate",
    "asymmetric_triples",
    "abelian",
    "g2_algebra",
    "su2_algebra",
    "kappa_algebra",
    "dual_algebra",
    "rescale",
    "custom_algebra",
    "load_algebra",
    "MAX_DIMENSION",
    "algebra_to_json",
]


class LieAlgebra:
    """Immutable structure constants; equality and hash ignore the name and
    the per-algebra memo caches: PBW straightening, the shift actions and
    y_action's shift route, each entry a numerator form (`poly.linear_form`),
    the adjoint matrix C with its power chain, which grows to the largest
    order asked, and beside it the table of C's series, one matrix per
    (kind, order) (`realization.series_matrix`), the dual algebra, and for
    kappa(b) the 1x1 matrix -A with its chain."""

    __slots__ = ("n", "c", "name", "_caches")

    def __init__(self, n: int, c: tuple, name: str = "custom"):
        set_ = object.__setattr__
        set_(self, "n", n)
        set_(self, "c", c)  # c[mu][nu][lam], nested tuples of Scalar
        set_(self, "name", name)
        set_(self, "_caches", {})

    def __setattr__(self, *_):
        raise AttributeError("LieAlgebra is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self.n == other.n and self.c == other.c

    def __hash__(self):
        return hash((self.n, self.c))

    def cache(self, key: str) -> dict:
        return self._caches.setdefault(key, {})


class KappaAlgebra(LieAlgebra):
    """A kappa-type algebra (`kappa_algebra`) that keeps its b, a tuple of Scalars."""

    __slots__ = ("b",)


def _freeze(n, fill):
    """Build the nested tuple from a callable (mu, nu, lam) -> Scalar."""
    return tuple(
        tuple(tuple(Scalar.coerce(fill(mu, nu, lam)) for lam in range(n)) for nu in range(n))
        for mu in range(n)
    )


def validate(g: LieAlgebra) -> dict:
    """Check antisymmetry and the Jacobi identity exactly.

    Returns {"antisymmetry": bool, "jacobi": bool, "witnesses": [...]}; a
    witness is an offending index tuple (1-based), for Jacobi with its
    residual, listed in index order and cut after the eleventh.  The Jacobi
    residual of (mu, al, be, nu) is sum_rho C_{mu al rho} C_{rho be nu} plus
    its two cyclic terms, summed over the nonzero constants only: past the
    n^3 loop over (mu, al, be), a sparse table costs little.
    """
    witnesses = [{"kind": "antisymmetry", "indices": [mu + 1, nu + 1, lam + 1]}
                 for mu, nu, lam in asymmetric_triples(g)]
    anti = not witnesses
    c = g.c
    rng = range(g.n)
    # nonzero[mu][al]: the (rho, C_{mu al rho}) with C_{mu al rho} != 0
    nonzero = [[[(rho, x) for rho, x in enumerate(row) if x] for row in m] for m in c]
    jacobi = True
    for mu in rng:
        for al in rng:
            for be in rng:
                residual = {}  # nu -> the Jacobi sum of (mu, al, be, nu)
                for x, y, z in ((mu, al, be), (al, be, mu), (be, mu, al)):
                    for rho, a in nonzero[x][y]:
                        for nu, b in nonzero[rho][z]:
                            residual[nu] = residual.get(nu, 0) + a * b
                for nu in sorted(residual):
                    if residual[nu]:
                        jacobi = False
                        witnesses.append({"kind": "jacobi",
                                          "indices": [mu + 1, al + 1, be + 1, nu + 1],
                                          "residual": str(residual[nu])})
                        if len(witnesses) > 10:
                            return {"antisymmetry": anti, "jacobi": False,
                                    "witnesses": witnesses}
    return {"antisymmetry": anti, "jacobi": jacobi, "witnesses": witnesses}


def asymmetric_triples(g: LieAlgebra):
    """The 0-based (mu, nu, lam) with C_{mu nu lam} != -C_{nu mu lam}, in index
    order, compared on the constants' numerators over one denominator."""
    n = g.n
    _, re, im = numerators([x for m in g.c for row in m for x in row])
    for mu, nu, lam in product(range(n), repeat=3):
        i, j = (mu * n + nu) * n + lam, (nu * n + mu) * n + lam
        if re[i] + re[j] or im[i] + im[j]:
            yield mu, nu, lam


# -- builders ---------------------------------------------------------------


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, _freeze(n, lambda *_: 0), name=f"abelian{n}")


def g2_algebra() -> LieAlgebra:
    """The 2d solvable algebra [X1, X2] = X2."""
    return kappa_algebra([Scalar(1), Scalar(0)], name="g2")


def su2_algebra(h=1) -> LieAlgebra:
    """su(2)-type constants C_{mu nu lam} = h * epsilon_{mu nu lam}."""
    h = Scalar.coerce(h)

    def eps(mu, nu, lam):
        if (mu, nu, lam) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            return h
        if (mu, nu, lam) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
            return -h
        return Scalar(0)

    return LieAlgebra(3, _freeze(3, eps), name="su2")


def kappa_algebra(b, name=None) -> KappaAlgebra:
    """Kappa-type algebra with C_{mu nu lam} = b_mu d_{nu lam} - b_nu d_{mu lam}."""
    b = tuple(Scalar.coerce(x) for x in b)
    n = len(b)

    def fill(mu, nu, lam):
        # nonzero only for mu != nu: C_{mu nu nu} = b_mu and C_{mu nu mu} = -b_nu
        if mu == nu or lam not in (mu, nu):
            return 0
        return b[mu] if lam == nu else -b[nu]

    g = KappaAlgebra(n, _freeze(n, fill), name=name or f"kappa{n}")
    object.__setattr__(g, "b", b)
    return g


def custom_algebra(n: int, entries: dict, name="custom") -> LieAlgebra:
    """Build from a {(mu, nu, lam): Scalar} dict of 0-based nonzero entries."""
    table = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]
    for (mu, nu, lam), c in entries.items():
        table[mu][nu][lam] = Scalar.coerce(c)
    return LieAlgebra(
        n, tuple(tuple(tuple(r) for r in m) for m in table), name=name
    )


def dual_algebra(g: LieAlgebra) -> LieAlgebra:
    """Left-right dual: all structure constants negated; the dual of kappa(b)
    is kappa(-b).  Built once per algebra and kept in g's caches; the dual
    keeps no reference to g, so a second `dual_algebra` of it is a new algebra."""
    memo = g.cache("dual_algebra")
    if "dual" not in memo:
        name = g.name + "~"
        if isinstance(g, KappaAlgebra):
            memo["dual"] = kappa_algebra([-x for x in g.b], name=name)
        else:
            c = tuple(tuple(tuple(-x if x else x for x in row) for row in m) for m in g.c)
            memo["dual"] = LieAlgebra(g.n, c, name=name)
    return memo["dual"]


def rescale(g: LieAlgebra, h) -> LieAlgebra:
    """All structure constants times h; kappa(b) rescales to kappa(h b)."""
    h = Scalar.coerce(h)
    if isinstance(g, KappaAlgebra):
        return kappa_algebra([x * h for x in g.b], name=g.name)
    return LieAlgebra(
        g.n, _freeze(g.n, lambda mu, nu, lam: g.c[mu][nu][lam] * h), name=g.name
    )


# -- serialization ----------------------------------------------------------


class AlgebraSpecError(ValueError):
    pass


# largest dimension a spec may declare; custom_algebra allocates n^3 entries
MAX_DIMENSION = 32


def _spec_int(value) -> int:
    """An integer field of a spec; int() would truncate a float or a bool."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def load_algebra(source) -> LieAlgebra:
    """Load from the JSON spec format (a path, file object, or dict).

    {"n": int, "constants": [{"mu": 1-based, "nu": ..., "lambda": ...,
    "c": "scalar-text"}, ...]}.  Only nonzero entries are listed; the
    antisymmetric completion is applied automatically and conflicting
    entries are rejected.  n must lie in 1..MAX_DIMENSION.
    """
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    try:
        n = _spec_int(data["n"])
        raw = data["constants"]
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraSpecError(f"malformed algebra spec: {exc}") from exc
    if not 1 <= n <= MAX_DIMENSION:
        raise AlgebraSpecError(f"dimension n={n} is outside 1..{MAX_DIMENSION}")
    if not isinstance(raw, list):
        raise AlgebraSpecError("malformed algebra spec: constants must be a list")
    entries = {}
    for item in raw:
        try:
            mu, nu, lam = (_spec_int(item[k]) - 1 for k in ("mu", "nu", "lambda"))
            c = Scalar.parse(item["c"])
        except (KeyError, TypeError, ValueError) as exc:
            raise AlgebraSpecError(f"malformed constant entry {item!r}: {exc}") from exc
        if not all(0 <= k < n for k in (mu, nu, lam)):
            raise AlgebraSpecError(f"index out of range in {item!r}")
        for key, val in (((mu, nu, lam), c), ((nu, mu, lam), -c)):
            if key in entries and entries[key] != val:
                raise AlgebraSpecError(
                    f"conflicting entries for C[{key[0]+1}][{key[1]+1}][{key[2]+1}]"
                )
            entries[key] = val
    return custom_algebra(n, entries, name=str(data.get("name", "custom")))


def algebra_to_json(g: LieAlgebra) -> dict:
    constants = []
    for mu in range(g.n):
        for nu in range(mu + 1, g.n):
            for lam in range(g.n):
                c = g.c[mu][nu][lam]
                if c:
                    constants.append(
                        {"mu": mu + 1, "nu": nu + 1, "lambda": lam + 1, "c": str(c)}
                    )
    return {"n": g.n, "name": g.name, "constants": constants}
