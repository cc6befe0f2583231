"""PBW arithmetic in U(g) and the shift-operator actions T, T^{-1}, Y.

Elements are stored on the ordered monomial basis X_1^{v_1} ... X_n^{v_n}.
Products are straightened by bubbling adjacent out-of-order generator pairs
through the bracket relations; the rewriting terminates by the usual
degree-lexicographic order and is memoized per algebra, each entry a
numerator form, as every `PBWElement` stores; only the structure constants
are read as Scalars.  Each public function fetches its memo dict once per
call and reads the hits itself, so the memoized recursions run only on a miss.
"""

from __future__ import annotations

from .lie import LieAlgebra
from .poly import TermMap, linear_form
from .scalars import Scalar, numerators

__all__ = ["PBWElement", "pbw_mul", "t_action", "tinv_action", "y_action"]


class PBWElement(TermMap):
    """Finite linear combination of ordered PBW monomials."""

    __slots__ = ()

    KEY_PARTS = (("exps", "X", "X"),)

    @classmethod
    def generator(cls, n, mu):
        return cls._linear(n, [1], mu)

    @classmethod
    def monomial(cls, n, exps, coeff=1):
        return cls(n, {tuple(exps): Scalar.coerce(coeff)})


def _word_of(exps):
    word = []
    for mu, e in enumerate(exps):
        word.extend([mu] * e)
    return tuple(word)


def _straighten(g: LieAlgebra, word) -> tuple:
    """PBW normal form of a generator word, as a memoized form."""
    cache = g.cache("straighten")
    hit = cache.get(word)
    if hit is not None:
        return hit
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a > b:
            # X_a X_b = X_b X_a + sum_lam C_{a b lam} X_lam
            head, tail = word[:i], word[i + 2 :]
            dc, us, vs = numerators(g.c[a][b])
            out = linear_form([
                (1, 0, 1, _straighten(g, head + (b, a) + tail)),
                *((u, v, dc, _straighten(g, head + (lam,) + tail))
                  for lam, (u, v) in enumerate(zip(us, vs)) if u or v),
            ])
            cache[word] = out
            return out
    exps = [0] * g.n
    for mu in word:
        exps[mu] += 1
    out = 1, ((tuple(exps), 1, 0),)
    cache[word] = out
    return out


def pbw_mul(g: LieAlgebra, A: PBWElement, B: PBWElement) -> PBWElement:
    """Product in U(g), straightened to the PBW basis; each c_a c_b enters the
    sum as Gaussian-integer numerators over d_a d_b, not as a Scalar product."""
    if A.n != g.n or B.n != g.n:
        raise ValueError("dimension mismatch")
    (da, left), (db, right) = A.form, B.form
    right = [(_word_of(k), r, s) for k, r, s in right]
    get = g.cache("straighten").get
    return A._like(linear_form(
        (p * r - q * s, p * s + q * r, da * db, get(w := wa + wb) or _straighten(g, w))
        for ka, p, q in left for wa in [_word_of(ka)] for wb, r, s in right
    ))


def _check_index(g, *idx):
    for k in idx:
        if not 0 <= k < g.n:
            raise IndexError(f"generator index {k} out of range 0..{g.n - 1}")


def _shift_mono(g: LieAlgebra, inverse: bool, mu: int, nu: int, exps) -> tuple:
    """T_{mu nu}, or T^{-1}_{mu nu} if `inverse`, on one PBW monomial, as a form.

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
    if sum(exps) == 0:
        out = (1, ((exps, 1, 0),) if mu == nu else ())
    else:
        al = next(i for i, e in enumerate(exps) if e)
        rest = exps[:al] + (exps[al] - 1,) + exps[al + 1 :]
        dr, rows = _shift_mono(g, inverse, mu, nu, rest)
        items = [(p, q, dr, _straighten(g, (al,) + _word_of(k))) for k, p, q in rows]
        # the inverse's constants enter negated, as numerators (-u, -v)
        sign = -1 if inverse else 1
        dc, us, vs = numerators(
            [g.c[rho][al][nu] for rho in range(g.n)] if inverse else g.c[mu][al])
        for rho, (u, v) in enumerate(zip(us, vs)):
            if u or v:
                inner = (mu, rho) if inverse else (rho, nu)
                items.append((sign * u, sign * v, dc, _shift_mono(g, inverse, *inner, rest)))
        out = linear_form(items)
    cache[key] = out
    return out


def _shift_action(g: LieAlgebra, inverse: bool, mu: int, nu: int, X: PBWElement):
    _check_index(g, mu, nu)
    get = g.cache("tinv_action" if inverse else "t_action").get
    den, rows = X.form
    return X._like(linear_form(
        (p, q, den, get((mu, nu, k)) or _shift_mono(g, inverse, mu, nu, k))
        for k, p, q in rows
    ))


def t_action(g: LieAlgebra, mu: int, nu: int, X: PBWElement) -> PBWElement:
    """T_{mu nu} acting on X (0-based indices)."""
    return _shift_action(g, False, mu, nu, X)


def tinv_action(g: LieAlgebra, mu: int, nu: int, X: PBWElement) -> PBWElement:
    """T^{-1}_{mu nu} acting on X (0-based indices)."""
    return _shift_action(g, True, mu, nu, X)


def _y_shift_mono(g: LieAlgebra, mu: int, exps) -> tuple:
    """sum_al X_al (T^{-1}_{mu al} |> X^a), the shift route of X^a X_mu, as a
    form memoized per algebra under (mu, a), next to the T and T^{-1} memos."""
    out = linear_form(
        (p, q, den, _straighten(g, (al,) + _word_of(k)))
        for al in range(g.n)
        for den, rows in [_shift_mono(g, True, mu, al, exps)]
        for k, p, q in rows
    )
    g.cache("y_action")[mu, exps] = out
    return out


def y_action(g: LieAlgebra, mu: int, X: PBWElement) -> PBWElement:
    """Right multiplication X X_mu, computed through the T^{-1} decomposition.

    The shift-operator route X X_mu = sum_al X_al (T^{-1}_{mu al} |> X),
    summed from its memoized monomial images, is required to agree with the
    direct PBW product; the agreement is checked on every call.
    """
    _check_index(g, mu)
    direct = pbw_mul(g, X, PBWElement.generator(g.n, mu))
    get = g.cache("y_action").get
    den, rows = X.form
    via_shift = X._like(linear_form(
        (p, q, den, get((mu, k)) or _y_shift_mono(g, mu, k)) for k, p, q in rows
    ))
    if direct != via_shift:
        raise AssertionError(
            f"y_action self-check failed for mu={mu + 1} on {X}"
        )
    return direct
