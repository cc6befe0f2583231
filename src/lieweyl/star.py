"""Ordering isomorphism and star-products transported from U(g).

omega maps a PBW element to the polynomial obtained by acting with the
realized operators on 1; the star-product lifts both factors, multiplies in
U(g) and maps back.  The dual star-product uses the dual realization and
the dual algebra (negated structure constants).  omega and omega_inv sum
memoized monomial images, weighted by the argument's own numerator rows; each
reads the hits from the context's memo dict itself, so the memoized
recursions `_omega_mono` and `_omega_inv_mono` run only on a miss.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .lie import LieAlgebra, dual_algebra
from .pbw import PBWElement, pbw_mul
from .poly import Polynomial, linear_form, product_terms
from .realization import (
    Realization,
    check,
    closure_residual,
    dual_realization,
    random_polynomial,
    residual_check,
    suite,
    weyl_realization,
    x_linear_bracket,
)
from .scalars import Q, Scalar
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
    "first_order_matches",
    "first_order_check",
]


class StarContext:
    __slots__ = ("algebra", "dual_alg", "primal", "dual", "order", "_omega_cache")

    def __init__(self, algebra: LieAlgebra, dual_alg: LieAlgebra, primal: Realization,
                 dual: Realization, order: int):
        self.algebra = algebra
        self.dual_alg = dual_alg
        self.primal = primal
        self.dual = dual
        self.order = order
        # (route, a) -> omega(X^a); ("inv", route, a) -> omega_inv(x^a), both
        # as reduced numerator forms (poly.linear_form)
        self._omega_cache = {}

    def route(self, which: str) -> tuple:
        """(realization, algebra the products are lifted to) of the route
        "primal" or "dual"; ValueError for any other name."""
        if which == "primal":
            return self.primal, self.algebra
        if which == "dual":
            return self.dual, self.dual_alg
        raise ValueError(f"unknown route {which!r}")


def make_context(g: LieAlgebra, order: int) -> StarContext:
    return StarContext(
        algebra=g,
        dual_alg=dual_algebra(g),
        primal=weyl_realization(g, order),
        dual=dual_realization(g, order),
        order=order,
    )


def _omega_mono(ctx: StarContext, which: str, exps) -> tuple:
    """omega(X^a) as a memoized form: xhat_mu acting on omega(X^(a - e_mu))."""
    key = (which, exps)
    hit = ctx._omega_cache.get(key)
    if hit is not None:
        return hit
    n = ctx.algebra.n
    if sum(exps) == 0:
        out = 1, ((exps, 1, 0),)
    else:
        mu = next(i for i, e in enumerate(exps) if e)
        rest = exps[:mu] + (exps[mu] - 1,) + exps[mu + 1 :]
        f = Polynomial(n)._like(_omega_mono(ctx, which, rest))
        out = ctx.route(which)[0].xhat[mu].apply(f).form
    ctx._omega_cache[key] = out
    return out


def omega(ctx: StarContext, X: PBWElement, which: str = "primal") -> Polynomial:
    """The ordering map: act with the realized monomial operators on 1."""
    ctx.route(which)  # an unknown route raises here, whatever X is
    if X.degree() > ctx.order:
        raise InsufficientOrder(X.degree(), ctx.order)
    get = ctx._omega_cache.get
    den, rows = X.form
    return Polynomial(ctx.algebra.n)._like(linear_form(
        (p, q, den, get((which, exps)) or _omega_mono(ctx, which, exps))
        for exps, p, q in rows
    ))


def _omega_inv_mono(ctx: StarContext, which: str, exps) -> tuple:
    """omega^{-1}(x^a) as a memoized PBW form, kept next to the omega images.

    omega(X^a) = x^a + (terms of lower degree), so
    omega^{-1}(x^a) = X^a - sum_{k != a} r_k omega^{-1}(x^k) with r = omega(X^a).
    """
    key = ("inv", which, exps)
    hit = ctx._omega_cache.get(key)
    if hit is not None:
        return hit
    den, r = _omega_mono(ctx, which, exps)
    d = sum(exps)
    # the form is reduced, so the coefficient 1 of x^a is the row (a, den, 0)
    if (exps, den, 0) not in r or any(sum(k) >= d for k, _, _ in r if k != exps):
        raise ValueError(f"omega(X^{list(exps)}) is not x^a plus terms of lower degree")
    out = linear_form(
        [(1, 0, 1, (1, ((exps, 1, 0),)))]
        + [(-p, -q, den, _omega_inv_mono(ctx, which, k)) for k, p, q in r if k != exps]
    )
    ctx._omega_cache[key] = out
    return out


def omega_inv(ctx: StarContext, f: Polynomial, which: str = "primal") -> PBWElement:
    """Inverse ordering map, a sum of memoized monomial inverses."""
    ctx.route(which)  # an unknown route raises here, whatever f is
    if f.degree() > ctx.order:
        raise InsufficientOrder(f.degree(), ctx.order)
    get = ctx._omega_cache.get
    den, rows = f.form
    return PBWElement(ctx.algebra.n)._like(linear_form(
        (p, q, den, get(("inv", which, exps)) or _omega_inv_mono(ctx, which, exps))
        for exps, p, q in rows
    ))


def star(ctx: StarContext, f: Polynomial, g: Polynomial, which: str = "primal") -> Polynomial:
    """f * g = omega(omega_inv(f) omega_inv(g))."""
    _, lift = ctx.route(which)
    need = max(f.degree(), 0) + max(g.degree(), 0)
    if need > ctx.order:
        raise InsufficientOrder(need, ctx.order)
    A = omega_inv(ctx, f, which)
    B = omega_inv(ctx, g, which)
    prod = pbw_mul(lift, A, B)
    return omega(ctx, prod, which)


def duality_check(ctx: StarContext, f: Polynomial, g: Polynomial) -> bool:
    """f * g == g *~ f (left-right duality)."""
    return star(ctx, f, g, "primal") == star(ctx, g, f, "dual")


def poisson_first_order(g: LieAlgebra, f: Polynomial, h: Polynomial) -> Polynomial:
    """Lie-Poisson bracket {f, h} = sum C_{al be rho} (d_al f)(x_rho d_be h),
    formed in one `product_terms` call; each d_al f and x_rho d_be h is formed
    once, and only where some C_{al be rho} is nonzero."""
    n = g.n
    nonzero = [(al, be, rho, c) for al, be, rho in product(range(n), repeat=3)
               if (c := g.c[al][be][rho])]
    df = {al: f.partial(al) for al in {t[0] for t in nonzero}}
    dh = {be: h.partial(be) for be in {t[1] for t in nonzero}}
    xdh = {(rho, be): dh[be]._raise(rho) for be, rho in {t[1:3] for t in nonzero}}
    return f._like(product_terms(
        (df[al], xdh[rho, be], c) for al, be, rho, c in nonzero
    ))


def verify_duality(ctx: StarContext, trials: int, rng, max_degree: int = 3) -> dict:
    """Duality report: xhat/yhat commutation, dual bracket sign, f*g = g*~f."""
    n = ctx.algebra.n
    guaranteed = ctx.order - 1
    phi, phi_dual = ctx.primal.phi, ctx.dual.phi
    commutators = (
        ({"indices": [mu + 1, nu + 1]}, x_linear_bracket(phi, mu, phi_dual, nu))
        for mu, nu in product(range(n), repeat=2)
    )
    # [yhat_mu, yhat_nu] = -sum C_{mu nu al} yhat_al: yhat closes under the
    # dual algebra
    closure = (
        ({"indices": [mu + 1, nu + 1]}, res)
        for mu, nu, res in closure_residual(ctx.dual_alg, ctx.dual)
    )
    checks = [
        residual_check("xhat-yhat-commute", guaranteed, commutators),
        residual_check("dual-bracket-sign", guaranteed, closure),
    ]

    max_degree = min(max_degree, ctx.order // 2)
    ok = True
    for _ in range(trials):
        f = random_polynomial(rng, n, max_degree)
        g = random_polynomial(rng, n, max_degree)
        ok = ok and duality_check(ctx, f, g)
    checks.append(
        check(f"star-duality[trials={trials},deg<={max_degree}]", ctx.order, ok)
    )
    return suite(guaranteed, checks)


def first_order_matches(product, bracket, f: Polynomial, g: Polynomial) -> bool:
    """Leading deformation correction of a star-product vs its Poisson bracket.

    The deformation grading coincides with the drop in total polynomial
    degree, so the statement is checked on homogeneous components: for f_p,
    g_q homogeneous the degree-(p+q-1) part of product(f_p, g_q) is half
    bracket(f_p, g_q), and the star-commutator part is the full bracket.
    """
    half = Scalar(Q(1, 2))
    g_parts = [(q, gq) for q in range(g.degree() + 1)
               if not (gq := g.homogeneous_part(q)).is_zero()]
    for p in range(f.degree() + 1):
        fp = f.homogeneous_part(p)
        if fp.is_zero():
            continue
        for q, gq in g_parts:
            pb = bracket(fp, gq)
            prod = product(fp, gq)
            flipped = product(gq, fp)
            if prod.homogeneous_part(p + q - 1) != pb.scale(half):
                return False
            if (prod - flipped).homogeneous_part(p + q - 1) != pb:
                return False
    return True


def first_order_check(ctx: StarContext, f: Polynomial, g: Polynomial) -> bool:
    """The star-product against the Lie-Poisson bracket, to first order."""
    # `star` is looked up per call, so a wrapped module attribute is seen
    return first_order_matches(
        lambda a, b: star(ctx, a, b), partial(poisson_first_order, ctx.algebra), f, g
    )
