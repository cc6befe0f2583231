"""Closed forms for the kappa-deformed space, cross-checked against the
generic engine.

Every function takes the algebra `lie.kappa_algebra(b)`, which keeps its b:
[X_mu, X_nu] = b_mu X_nu - b_nu X_mu with b_mu = i a_mu exact Gaussian
rationals.  Two identities carry the module, with A = b . d.  C^2 = -A C, so
every closed-form matrix is f(C) = f(0) I + h(-A) C (`_function_of_c`), and
reproduces the generic realizations entry by entry.  A lowers the degree by
one, so the first-order part of the closed star product, applied from a table
of weights (`_weights`), is two of its entries (`_first_order`).
"""

from __future__ import annotations

from functools import cache, partial

from .lie import KappaAlgebra
from .poly import Polynomial, linear_form, product_terms
from .realization import (
    Realization,
    adjoint_matrix,
    check,
    dual_realization,
    random_polynomial,
    realization_from_phi,
    suite,
    t_realization,
    weyl_realization,
)
from .scalars import from_numerators, numerators
from .series import TruncSeries, series_coeffs
from .star import first_order_matches, make_context, poisson_first_order, star
from .weyl import (
    InsufficientOrder,
    OpMatrix,
    WeylOp,
    matrix_series,
    series_in_op,
    sum_of_products,
)

__all__ = [
    "kappa_power_check",
    "kappa_closed_realization",
    "kappa_dual_closed",
    "kappa_t_closed",
    "KappaStarContext",
    "bidiff_star",
    "kappa_poisson_check",
    "verify_kappa",
]


def _function_of_c(g: KappaAlgebra, f: TruncSeries) -> OpMatrix:
    """f(C) = f(0) I + h(-A) C with h(t) = (f(t) - f(0))/t, exact through the
    order of h, which is order(f) - 1.

    C^2 = -A C gives C^k = (-A)^{k-1} C for k >= 1.  -A is one 1x1 matrix kept
    in the algebra's cache, so every series in it reads one power chain, as
    every series in C does (`adjoint_matrix`).
    """
    n, memo = g.n, g.cache("kappa")
    if "-A" not in memo:
        memo["-A"] = OpMatrix(1, [[-WeylOp._linear(n, g.b, n)]])
    h = matrix_series(TruncSeries(f.coeffs[1:]), memo["-A"])[0, 0]
    C, f0 = adjoint_matrix(g), [(WeylOp.constant(n, f[0]), WeylOp.one(n))]
    return OpMatrix(n, [[sum_of_products([(C[mu, nu], h)] + f0 * (mu == nu)) for nu in range(n)]
                        for mu in range(n)])


def kappa_power_check(g: KappaAlgebra, order: int) -> bool:
    """C^k == (-A)^{k-1} C through the order, for every k = 1..order."""
    powers = adjoint_matrix(g).powers(order)
    for k in range(1, order + 1):
        t_k = TruncSeries([int(j == k) for j in range(order + 2)])
        if powers[k] != _function_of_c(g, t_k):
            return False
    return True


def kappa_closed_realization(g: KappaAlgebra, order: int) -> Realization:
    """Closed-form Weyl-symmetric realization psi(C):

    xhat_mu = x_mu A/(e^A - 1) + b_mu (x . d) (1/A - 1/(e^A - 1)).
    """
    phi = _function_of_c(g, series_coeffs("psi", order + 1))
    return realization_from_phi(g, phi, "weyl_symmetric")


def kappa_dual_closed(g: KappaAlgebra, order: int) -> Realization:
    """Closed-form dual realization psi_tilde(C):

    yhat_mu = x_mu A/(1 - e^{-A}) + b_mu (x . d) (1/A - 1/(1 - e^{-A})).
    """
    phi = _function_of_c(g, series_coeffs("psi_tilde", order + 1))
    return realization_from_phi(g, phi, "dual_weyl_symmetric")


def kappa_t_closed(g: KappaAlgebra, order: int):
    """Closed-form shift matrices (exp(C), exp(-C)):

    That_{mu nu} = e^{-A} delta - b_mu d_nu (e^{-A} - 1)/A, and the inverse
    with A -> -A.
    """
    return tuple(
        _function_of_c(g, series_coeffs(kind, order + 1)) for kind in ("exp", "exp_neg")
    )


def _weights(order: int) -> tuple:
    """(primal, dual) tables {(s, m, t, k): [u^s v^t] R1(u, v)^m R2(u, v)^k}
    for s + m + t + k <= order.

    The closed star product is exp(E) with E = X_l (R1 - 1) + X_r (R2 - 1),
    X_l = sum_al x_al dl_al, u = b . dl and likewise on the right, where
    R1 = psi_tilde(u+v)/psi_tilde(u) and R2 = psi(u+v)/psi(v).  With the x's
    on the left, X_l^p/p! multiplies a homogeneous left factor of degree m by
    binom(m, p) (Euler), so the sum over p of binom(m, p) (R1 - 1)^p is R1^m.
    The dual route interchanges psi and psi_tilde = psi(-t), so its weight is
    the primal one times (-1)^(s+t).  The tables depend on neither b nor n.
    No series is divided: 1/psi_tilde(t) = (e^t - 1)/t and 1/psi(t) =
    (1 - e^{-t})/t are the kinds dexp and dexp_neg, so each ratio is a
    product of x-free operators in u = d_1 and v = d_2.
    """
    u, v = WeylOp.d(2, 0), WeylOp.d(2, 1)
    # one linear form, since the suites form no pairwise operator sum
    u_plus_v = WeylOp._linear(2, [1, 1], 2)
    powers = []
    for f, inverse, var in (("psi_tilde", "dexp", u), ("psi", "dexp_neg", v)):
        ratio = series_in_op(series_coeffs(f, order), u_plus_v) * series_in_op(
            series_coeffs(inverse, order), var
        )
        # R^m is needed only through degree order - m
        side = [WeylOp.one(2)]
        for m in range(1, order + 1):
            side.append(sum_of_products([(side[-1], ratio)], order - m))
        powers.append(side)
    primal, dual = {}, {}
    for m, r1 in enumerate(powers[0]):
        for k, r2 in enumerate(powers[1][: order - m + 1]):
            den, rows = sum_of_products([(r1, r2)], order - m - k).form
            for (_, _, s, t), p, q in rows:
                w = primal[s, m, t, k] = from_numerators(p, q, den)
                dual[s, m, t, k] = from_numerators(-p, -q, den) if (s + t) % 2 else w
    return primal, dual


class KappaStarContext:
    """The closed star product of one kappa algebra, cut at one order.

    Both routes' weight tables (`_weights`), which give the product of any f, g
    with deg f + deg g <= order, are built on first use and kept.  So are the
    A-chains (`_a_chains`) of every polynomial it multiplies, a memo that grows
    with those polynomials: build one context per run, as `verify_kappa` does.
    """

    __slots__ = ("algebra", "order", "_tables", "_chains")

    def __init__(self, algebra: KappaAlgebra, order: int):
        self.algebra = algebra
        self.order = order
        self._tables = None
        self._chains = {}

    def weights(self, dual: bool = False) -> dict:
        if self._tables is None:
            self._tables = _weights(self.order)
        return self._tables[dual]

    def a_chains(self, f: Polynomial) -> dict:
        chains = self._chains.get(f)
        if chains is None:
            chains = self._chains[f] = _a_chains(self.algebra.b, f)
        return chains


def _apply_a(b, f: Polynomial) -> Polynomial:
    """A f = sum_mu b_mu d_mu f, formed as one `linear_form` of the partials."""
    db, us, vs = numerators(b)
    return f._like(linear_form(
        (u, v, db, f.partial(mu).form) for mu, (u, v) in enumerate(zip(us, vs)) if u or v
    ))


def _a_chains(b, f: Polynomial) -> dict:
    """{(s, m): the degree-m part of A^s f, which is A^s f_{s+m}} over the
    nonzero parts, with A = b . d."""
    chains, h, s = {}, f, 0
    while h.form[1]:
        for m in sorted({sum(k) for k, _, _ in h.form[1]}):
            chains[s, m] = h.homogeneous_part(m)
        h = _apply_a(b, h)
        s += 1
    return chains


def bidiff_star(ctx: KappaStarContext, f: Polynomial, g: Polynomial,
                dual: bool = False) -> Polynomial:
    """The closed bi-differential star-product of the kappa space:

    f * g = sum w(s, m, t, k) (A^s f)_m (A^t g)_k over the degree-m and
    degree-k parts, with A = b . d and the weights w of `_weights`, formed in
    one `product_terms` call over the context's memoized chains.
    Raises InsufficientOrder when deg f + deg g exceeds the context's order.
    """
    deg = f.degree() + g.degree()
    if deg > ctx.order:
        raise InsufficientOrder(deg, ctx.order)
    weights, g_parts = ctx.weights(dual), ctx.a_chains(g)
    return f._like(product_terms(
        (fp, gp, w)
        for sm, fp in ctx.a_chains(f).items()
        for tk, gp in g_parts.items()
        if (w := weights.get(sm + tk))
    ))


def _first_order(w: dict, apply_a, fp: Polynomial, gq: Polynomial) -> Polynomial:
    """The degree-(p + q - 1) part of fp * gq under the table w, for fp, gq
    homogeneous of degrees p, q: A lowers the degree by exactly one, so it is
    w(1, p-1, 0, q) (A fp) gq + w(0, p, 1, q-1) fp (A gq), with A f = apply_a(f)."""
    p, q = fp.degree(), gq.degree()
    items = (((1, p - 1, 0, q), apply_a(fp), gq), ((0, p, 1, q - 1), fp, apply_a(gq)))
    return fp._like(product_terms((a, c, w[key]) for key, a, c in items if key in w))


def kappa_poisson_check(ctx: KappaStarContext, f: Polynomial, g: Polynomial) -> bool:
    """First-order limit of the closed star-product.

    The leading correction of f * g is half the Lie-Poisson bracket
    {f, g} = sum (b_al x_be - b_be x_al)(d_al f)(d_be g), and the
    star-commutator correction is the full bracket.  On the homogeneous parts
    it compares, only the first-order part is formed (`_first_order`), from
    A-images formed once per part and call.
    """
    deg = f.degree() + g.degree()
    if deg > ctx.order:
        raise InsufficientOrder(deg, ctx.order)
    first = partial(_first_order, ctx.weights(), cache(partial(_apply_a, ctx.algebra.b)))
    return first_order_matches(first, partial(poisson_first_order, ctx.algebra), f, g)


def verify_kappa(g: KappaAlgebra, order: int, trials: int, rng) -> dict:
    """Cross-validate every closed form against the generic engine."""
    n = g.n
    checks = [check(f"power-formula[k<={order}]", order, kappa_power_check(g, order))]

    for identity, generic_of, closed_of in (
        ("closed-realization", weyl_realization, kappa_closed_realization),
        ("closed-dual", dual_realization, kappa_dual_closed),
    ):
        generic = generic_of(g, order).xhat
        closed = closed_of(g, order).xhat
        checks.append(check(identity, order, closed == generic))

    Tc, Tci = kappa_t_closed(g, order)
    Tg, Tgi = t_realization(g, order)
    checks.append(check("closed-t-matrices", order, Tc == Tg and Tci == Tgi))
    checks.append(check("t-inverse-product", order, Tc * Tci == OpMatrix.identity(n)))

    star_order = min(order, 6)
    ctx = make_context(g, star_order)
    kctx = KappaStarContext(g, star_order)
    deg = min(3, star_order // 2)
    ok = True
    ok_pois = True
    for _ in range(trials):
        f = random_polynomial(rng, n, deg)
        h = random_polynomial(rng, n, deg)
        ok = ok and bidiff_star(kctx, f, h) == star(ctx, f, h)
        ok = ok and bidiff_star(kctx, f, h, dual=True) == star(ctx, f, h, "dual")
        ok_pois = ok_pois and kappa_poisson_check(kctx, f, h)
    checks.append(check(f"bidiff-vs-generic[trials={trials}]", star_order, ok))
    checks.append(check(f"poisson-first-order[trials={trials}]", star_order, ok_pois))
    return suite(order, checks)
