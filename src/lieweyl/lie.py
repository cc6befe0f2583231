"""Lie algebra structure constants, validation and builders.

Structure constants are stored 0-based internally as c[mu][nu][lam] with
[X_mu, X_nu] = sum_lam c[mu][nu][lam] X_lam.  Serialized files use 1-based
indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .scalars import Scalar

__all__ = [
    "LieAlgebra",
    "validate",
    "abelian",
    "g2_algebra",
    "su2_algebra",
    "kappa_algebra",
    "dual_algebra",
    "rescale",
    "custom_algebra",
    "load_algebra",
    "algebra_to_json",
]


@dataclass(frozen=True)
class LieAlgebra:
    n: int
    c: tuple  # c[mu][nu][lam], nested tuples of Scalar
    name: str = "custom"
    # per-algebra memo caches for PBW straightening and shift actions;
    # excluded from equality/hash
    _caches: dict = field(default_factory=dict, compare=False, repr=False)

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self.n == other.n and self.c == other.c

    def __hash__(self):
        return hash((self.n, self.c))

    def cache(self, key: str) -> dict:
        return self._caches.setdefault(key, {})


def _freeze(n, fill):
    """Build the nested tuple from a callable (mu, nu, lam) -> Scalar."""
    return tuple(
        tuple(tuple(Scalar.coerce(fill(mu, nu, lam)) for lam in range(n)) for nu in range(n))
        for mu in range(n)
    )


def validate(g: LieAlgebra) -> dict:
    """Check antisymmetry and the Jacobi identity exactly.

    Returns {"antisymmetry": bool, "jacobi": bool, "witnesses": [...]}; a
    witness is the first offending index tuple (1-based) with the residual.
    """
    witnesses = []
    anti = True
    c = g.c
    rng = range(g.n)
    for mu in rng:
        for nu in rng:
            for lam in rng:
                if c[mu][nu][lam] != -c[nu][mu][lam]:
                    anti = False
                    witnesses.append(
                        {
                            "kind": "antisymmetry",
                            "indices": [mu + 1, nu + 1, lam + 1],
                        }
                    )
    jacobi = True
    for mu in rng:
        for al in rng:
            for be in rng:
                for nu in rng:
                    s = Scalar(0)
                    for rho in rng:
                        s = s + (
                            c[mu][al][rho] * c[rho][be][nu]
                            + c[al][be][rho] * c[rho][mu][nu]
                            + c[be][mu][rho] * c[rho][al][nu]
                        )
                    if s:
                        jacobi = False
                        witnesses.append(
                            {
                                "kind": "jacobi",
                                "indices": [mu + 1, al + 1, be + 1, nu + 1],
                                "residual": str(s),
                            }
                        )
                        if len(witnesses) > 10:
                            return {
                                "antisymmetry": anti,
                                "jacobi": False,
                                "witnesses": witnesses,
                            }
    return {"antisymmetry": anti, "jacobi": jacobi, "witnesses": witnesses}


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


def kappa_algebra(b, name=None) -> LieAlgebra:
    """Kappa-type algebra with C_{mu nu lam} = b_mu d_{nu lam} - b_nu d_{mu lam}."""
    b = [Scalar.coerce(x) for x in b]
    n = len(b)

    def fill(mu, nu, lam):
        out = Scalar(0)
        if nu == lam:
            out = out + b[mu]
        if mu == lam:
            out = out - b[nu]
        return out

    return LieAlgebra(n, _freeze(n, fill), name=name or f"kappa{n}")


def custom_algebra(n: int, entries: dict, name="custom") -> LieAlgebra:
    """Build from a {(mu, nu, lam): Scalar} dict of 0-based nonzero entries."""
    table = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]
    for (mu, nu, lam), c in entries.items():
        table[mu][nu][lam] = Scalar.coerce(c)
    return LieAlgebra(
        n, tuple(tuple(tuple(r) for r in m) for m in table), name=name
    )


def dual_algebra(g: LieAlgebra) -> LieAlgebra:
    """Left-right dual: all structure constants negated."""
    return LieAlgebra(
        g.n, _freeze(g.n, lambda mu, nu, lam: -g.c[mu][nu][lam]), name=g.name + "~"
    )


def rescale(g: LieAlgebra, h) -> LieAlgebra:
    h = Scalar.coerce(h)
    return LieAlgebra(
        g.n, _freeze(g.n, lambda mu, nu, lam: g.c[mu][nu][lam] * h), name=g.name
    )


# -- serialization ----------------------------------------------------------


class AlgebraSpecError(ValueError):
    pass


def load_algebra(source) -> LieAlgebra:
    """Load from the JSON spec format (a path, file object, or dict).

    {"n": int, "constants": [{"mu": 1-based, "nu": ..., "lambda": ...,
    "c": "scalar-text"}, ...]}.  Only nonzero entries are listed; the
    antisymmetric completion is applied automatically and conflicting
    entries are rejected.
    """
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    try:
        n = int(data["n"])
        raw = data["constants"]
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraSpecError(f"malformed algebra spec: {exc}") from exc
    entries = {}
    for item in raw:
        try:
            mu, nu, lam = int(item["mu"]) - 1, int(item["nu"]) - 1, int(item["lambda"]) - 1
            c = Scalar.parse(str(item["c"]))
        except (KeyError, ValueError) as exc:
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
