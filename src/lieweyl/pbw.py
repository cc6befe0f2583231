"""PBW arithmetic in U(g) and the shift-operator actions T, T^{-1}, Y.

Elements are stored on the ordered monomial basis X_1^{v_1} ... X_n^{v_n}.
Products are straightened by bubbling adjacent out-of-order generator pairs
through the bracket relations; the rewriting terminates by the usual
degree-lexicographic order and is memoized per algebra.
"""

from __future__ import annotations

from .lie import LieAlgebra
from .poly import TermMap, merge, mi_degree, mi_unit
from .scalars import Scalar

__all__ = ["PBWElement", "pbw_mul", "t_action", "tinv_action", "y_action"]


class PBWElement(TermMap):
    """Finite linear combination of ordered PBW monomials."""

    __slots__ = ()

    KEY_PARTS = (("exps", "X", "X"),)

    @classmethod
    def generator(cls, n, mu):
        return cls(n, {mi_unit(n, mu): Scalar(1)})

    @classmethod
    def monomial(cls, n, exps, coeff=1):
        return cls(n, {tuple(exps): Scalar.coerce(coeff)})


def _word_of(exps):
    word = []
    for mu, e in enumerate(exps):
        word.extend([mu] * e)
    return tuple(word)


def _straighten(g: LieAlgebra, word) -> dict:
    """PBW normal form of a generator word, as a term map."""
    cache = g.cache("straighten")
    hit = cache.get(word)
    if hit is not None:
        return hit
    n = g.n
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a > b:
            # X_a X_b = X_b X_a + sum_lam C_{a b lam} X_lam
            out = dict(_straighten(g, word[:i] + (b, a) + word[i + 2 :]))
            cab = g.c[a][b]
            for lam in range(n):
                c = cab[lam]
                if c:
                    for k, v in _straighten(g, word[:i] + (lam,) + word[i + 2 :]).items():
                        merge(out, k, v * c)
            cache[word] = out
            return out
    exps = [0] * n
    for mu in word:
        exps[mu] += 1
    out = {tuple(exps): Scalar(1)}
    cache[word] = out
    return out


def pbw_mul(g: LieAlgebra, A: PBWElement, B: PBWElement) -> PBWElement:
    """Product in U(g), straightened to the PBW basis."""
    if A.n != g.n or B.n != g.n:
        raise ValueError("dimension mismatch")
    out = {}
    for ka, ca in A.terms.items():
        wa = _word_of(ka)
        for kb, cb in B.terms.items():
            c = ca * cb
            for k, v in _straighten(g, wa + _word_of(kb)).items():
                merge(out, k, v * c)
    return A._like(out)


def _mul_gen_left(g: LieAlgebra, mu: int, terms: dict) -> dict:
    """Term map of X_mu * (term map)."""
    out = {}
    for k, c in terms.items():
        for kk, v in _straighten(g, (mu,) + _word_of(k)).items():
            merge(out, kk, v * c)
    return out


def _check_index(g, *idx):
    for k in idx:
        if not 0 <= k < g.n:
            raise IndexError(f"generator index {k} out of range 0..{g.n - 1}")


def _shift_mono(g: LieAlgebra, inverse: bool, mu: int, nu: int, exps) -> dict:
    """T_{mu nu}, or T^{-1}_{mu nu} if `inverse`, on one PBW monomial.

    Peels the leftmost generator, X = X_al * rest, so that
      T_{mu nu} |> X = X_al (T_{mu nu} |> rest)
                       + sum_rho C_{mu al rho} T_{rho nu} |> rest,
      T^{-1}_{mu nu} |> X = X_al (T^{-1}_{mu nu} |> rest)
                            - sum_rho C_{rho al nu} T^{-1}_{mu rho} |> rest.
    The two actions are memoized in separate caches of the algebra.
    """
    cache = g.cache("tinv_action" if inverse else "t_action")
    key = (mu, nu, exps)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if mi_degree(exps) == 0:
        out = {exps: Scalar(1)} if mu == nu else {}
    else:
        al = next(i for i, e in enumerate(exps) if e)
        rest = exps[:al] + (exps[al] - 1,) + exps[al + 1 :]
        out = _mul_gen_left(g, al, _shift_mono(g, inverse, mu, nu, rest))
        for rho in range(g.n):
            if inverse:
                c = -g.c[rho][al][nu]
                inner = (mu, rho)
            else:
                c = g.c[mu][al][rho]
                inner = (rho, nu)
            if c:
                for k, v in _shift_mono(g, inverse, *inner, rest).items():
                    merge(out, k, v * c)
    cache[key] = out
    return out


def _shift_action(g: LieAlgebra, inverse: bool, mu: int, nu: int, X: PBWElement):
    _check_index(g, mu, nu)
    out = {}
    for k, c in X.terms.items():
        for kk, v in _shift_mono(g, inverse, mu, nu, k).items():
            merge(out, kk, v * c)
    return X._like(out)


def t_action(g: LieAlgebra, mu: int, nu: int, X: PBWElement) -> PBWElement:
    """T_{mu nu} acting on X (0-based indices)."""
    return _shift_action(g, False, mu, nu, X)


def tinv_action(g: LieAlgebra, mu: int, nu: int, X: PBWElement) -> PBWElement:
    """T^{-1}_{mu nu} acting on X (0-based indices)."""
    return _shift_action(g, True, mu, nu, X)


def y_action(g: LieAlgebra, mu: int, X: PBWElement) -> PBWElement:
    """Right multiplication X X_mu, computed through the T^{-1} decomposition.

    The shift-operator route X X_mu = sum_al X_al (T^{-1}_{mu al} |> X) is
    required to agree with the direct PBW product; the agreement is checked
    on every call.
    """
    _check_index(g, mu)
    direct = pbw_mul(g, X, PBWElement.generator(g.n, mu))
    via_shift = PBWElement.zero(g.n)
    for al in range(g.n):
        part = tinv_action(g, mu, al, X)
        if not part.is_zero():
            via_shift = via_shift + X._like(_mul_gen_left(g, al, part.terms))
    if direct != via_shift:
        raise AssertionError(
            f"y_action self-check failed for mu={mu + 1} on {X}"
        )
    return direct
