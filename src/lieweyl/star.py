"""Ordering isomorphism and star-products transported from U(g).

omega maps a PBW element to the polynomial obtained by acting with the
realized operators on 1; the star-product lifts both factors, multiplies in
U(g) and maps back.  The dual star-product uses the dual realization and
the dual algebra (negated structure constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lie import LieAlgebra, dual_algebra
from .pbw import PBWElement, pbw_mul
from .poly import Polynomial, mi_degree
from .realization import Realization, dual_realization, weyl_realization
from .scalars import Scalar
from .weyl import InsufficientOrder

__all__ = [
    "StarContext",
    "make_context",
    "omega",
    "omega_inv",
    "star",
    "duality_check",
    "verify_duality",
    "poisson_first_order",
    "first_order_check",
]


@dataclass
class StarContext:
    algebra: LieAlgebra
    dual_alg: LieAlgebra
    primal: Realization
    dual: Realization
    order: int
    _omega_cache: dict = field(default_factory=dict, repr=False)

    def realization(self, which: str) -> Realization:
        if which == "primal":
            return self.primal
        if which == "dual":
            return self.dual
        raise ValueError(f"unknown route {which!r}")

    def lift_algebra(self, which: str) -> LieAlgebra:
        return self.algebra if which == "primal" else self.dual_alg


def make_context(g: LieAlgebra, order: int) -> StarContext:
    return StarContext(
        algebra=g,
        dual_alg=dual_algebra(g),
        primal=weyl_realization(g, order),
        dual=dual_realization(g, order),
        order=order,
    )


def _omega_mono(ctx: StarContext, which: str, exps) -> Polynomial:
    key = (which, exps)
    hit = ctx._omega_cache.get(key)
    if hit is not None:
        return hit
    n = ctx.algebra.n
    if mi_degree(exps) == 0:
        out = Polynomial.one(n)
    else:
        mu = next(i for i, e in enumerate(exps) if e)
        rest = exps[:mu] + (exps[mu] - 1,) + exps[mu + 1 :]
        out = ctx.realization(which).xhat[mu].apply(_omega_mono(ctx, which, rest))
    ctx._omega_cache[key] = out
    return out


def omega(ctx: StarContext, X: PBWElement, which: str = "primal") -> Polynomial:
    """The ordering map: act with the realized monomial operators on 1."""
    if X.degree() > ctx.order:
        raise InsufficientOrder(X.degree(), ctx.order)
    out = Polynomial.zero(ctx.algebra.n)
    for exps, c in X.terms.items():
        out = out + _omega_mono(ctx, which, exps).scale(c)
    return out


def omega_inv(ctx: StarContext, f: Polynomial, which: str = "primal") -> PBWElement:
    """Inverse ordering map, by descending-degree triangularity."""
    if f.degree() > ctx.order:
        raise InsufficientOrder(f.degree(), ctx.order)
    n = ctx.algebra.n
    out = PBWElement.zero(n)
    rem = f
    while not rem.is_zero():
        d = rem.degree()
        top = rem.homogeneous_part(d)
        lift = PBWElement(n, dict(top.terms))
        out = out + lift
        rem = rem - omega(ctx, lift, which)
        if rem.degree() >= d and d > 0:  # pragma: no cover - triangularity guard
            raise AssertionError("omega lift failed to lower the degree")
    return out


def star(ctx: StarContext, f: Polynomial, g: Polynomial, which: str = "primal") -> Polynomial:
    """f * g = omega(omega_inv(f) omega_inv(g))."""
    need = max(f.degree(), 0) + max(g.degree(), 0)
    if need > ctx.order:
        raise InsufficientOrder(need, ctx.order)
    A = omega_inv(ctx, f, which)
    B = omega_inv(ctx, g, which)
    prod = pbw_mul(ctx.lift_algebra(which), A, B)
    return omega(ctx, prod, which)


def duality_check(ctx: StarContext, f: Polynomial, g: Polynomial) -> bool:
    """f * g == g *~ f (left-right duality)."""
    return star(ctx, f, g, "primal") == star(ctx, g, f, "dual")


def poisson_first_order(g: LieAlgebra, f: Polynomial, h: Polynomial) -> Polynomial:
    """Lie-Poisson bracket {f, h} = sum C_{al be rho} x_rho (d_al f)(d_be h)."""
    n = g.n
    out = Polynomial.zero(n)
    df = [f.partial(al) for al in range(n)]
    dh = [h.partial(be) for be in range(n)]
    for al in range(n):
        if df[al].is_zero():
            continue
        for be in range(n):
            if dh[be].is_zero():
                continue
            lin = Polynomial(
                n,
                {
                    tuple(1 if k == rho else 0 for k in range(n)): g.c[al][be][rho]
                    for rho in range(n)
                    if g.c[al][be][rho]
                },
            )
            if not lin.is_zero():
                out = out + lin * df[al] * dh[be]
    return out


def verify_duality(ctx: StarContext, trials: int, rng, max_degree: int = 3) -> dict:
    """Duality report: xhat/yhat commutation, dual bracket sign, f*g = g*~f."""
    from .realization import random_polynomial

    n = ctx.algebra.n
    guaranteed = ctx.order - 1
    checks = []

    ok = True
    for mu in range(n):
        for nu in range(n):
            res = ctx.primal.xhat[mu].commutator(ctx.dual.xhat[nu]).truncate(guaranteed)
            ok = ok and res.is_zero()
    checks.append(
        {"identity": "xhat-yhat-commute", "order_checked": guaranteed, "pass": ok}
    )

    # [yhat_mu, yhat_nu] = -sum C_{mu nu al} yhat_al
    ok = True
    for mu in range(n):
        for nu in range(mu + 1, n):
            res = ctx.dual.xhat[mu].commutator(ctx.dual.xhat[nu])
            for al in range(n):
                c = ctx.algebra.c[mu][nu][al]
                if c:
                    res = res + ctx.dual.xhat[al].scale(c)
            ok = ok and res.truncate(guaranteed).is_zero()
    checks.append(
        {"identity": "dual-bracket-sign", "order_checked": guaranteed, "pass": ok}
    )

    max_degree = min(max_degree, ctx.order // 2)
    ok = True
    for _ in range(trials):
        f = random_polynomial(rng, n, max_degree)
        g = random_polynomial(rng, n, max_degree)
        ok = ok and duality_check(ctx, f, g)
    checks.append(
        {
            "identity": f"star-duality[trials={trials},deg<={max_degree}]",
            "order_checked": ctx.order,
            "pass": ok,
        }
    )
    ok_all = all(c["pass"] for c in checks)
    return {"pass": ok_all, "order_checked": guaranteed, "checks": checks}


def first_order_check(ctx: StarContext, f: Polynomial, g: Polynomial) -> bool:
    """Leading deformation correction of the star-product vs the Poisson bracket.

    The deformation grading coincides with the drop in total polynomial
    degree, so the statement is checked on homogeneous components: for f_p,
    g_q homogeneous the degree-(p+q-1) part of f_p * g_q is half the
    Lie-Poisson bracket {f_p, g_q}, and the star-commutator part is the full
    bracket.
    """
    half = Scalar(1) / Scalar(2)
    for p in range(f.degree() + 1):
        fp = f.homogeneous_part(p)
        if fp.is_zero():
            continue
        for q in range(g.degree() + 1):
            gq = g.homogeneous_part(q)
            if gq.is_zero():
                continue
            pb = poisson_first_order(ctx.algebra, fp, gq)
            prod = star(ctx, fp, gq)
            flipped = star(ctx, gq, fp)
            if prod.homogeneous_part(p + q - 1) != pb.scale(half):
                return False
            if (prod - flipped).homogeneous_part(p + q - 1) != pb:
                return False
    return True

