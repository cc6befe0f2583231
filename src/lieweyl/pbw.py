"""PBW arithmetic in U(g) and the shift-operator actions T, T^{-1}, Y.

Elements are stored on the ordered monomial basis X_1^{v_1} ... X_n^{v_n}.
Products are straightened by bubbling adjacent out-of-order generator pairs
through the bracket relations; the rewriting terminates by the usual
degree-lexicographic order and is memoized per algebra.
"""

from __future__ import annotations

from .lie import LieAlgebra
from .poly import TermMap, linear_combination, mi_degree, mi_unit
from .scalars import ONE, Scalar

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
            head, tail = word[:i], word[i + 2 :]
            out = linear_combination([
                (ONE, _straighten(g, head + (b, a) + tail)),
                *((c, _straighten(g, head + (lam,) + tail))
                  for lam, c in enumerate(g.c[a][b]) if c),
            ])
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
    left = [(_word_of(k), c) for k, c in A.terms.items()]
    right = [(_word_of(k), c) for k, c in B.terms.items()]
    return A._like(linear_combination(
        (ca * cb, _straighten(g, wa + wb)) for wa, ca in left for wb, cb in right
    ))


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
        pairs = [
            (c, _straighten(g, (al,) + _word_of(k)))
            for k, c in _shift_mono(g, inverse, mu, nu, rest).items()
        ]
        for rho in range(g.n):
            c = -g.c[rho][al][nu] if inverse else g.c[mu][al][rho]
            if c:
                inner = (mu, rho) if inverse else (rho, nu)
                pairs.append((c, _shift_mono(g, inverse, *inner, rest)))
        out = linear_combination(pairs)
    cache[key] = out
    return out


def _shift_action(g: LieAlgebra, inverse: bool, mu: int, nu: int, X: PBWElement):
    _check_index(g, mu, nu)
    return X._like(linear_combination(
        (c, _shift_mono(g, inverse, mu, nu, k)) for k, c in X.terms.items()
    ))


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
    via_shift = X._like(linear_combination(
        (c, _straighten(g, (al,) + _word_of(k)))
        for al in range(g.n)
        for k, c in tinv_action(g, mu, al, X).terms.items()
    ))
    if direct != via_shift:
        raise AssertionError(
            f"y_action self-check failed for mu={mu + 1} on {X}"
        )
    return direct
