"""Closed forms for the kappa-deformed space, cross-checked against the
generic engine.

Every function takes the algebra `lie.kappa_algebra(b)`, which keeps its b:
[X_mu, X_nu] = b_mu X_nu - b_nu X_mu with b_mu = i a_mu exact Gaussian
rationals.  Every closed-form matrix is one function f(C) of the adjoint
matrix, written through the single derivative operator A = b . d (see
`_function_of_c`); the results reproduce the generic matrix-series
realizations entry by entry.  The closed star product of either route is
applied from a table of weights in two variables (see `_weights`).
"""

from __future__ import annotations

from functools import partial

from .lie import KappaAlgebra
from .poly import Polynomial, linear_form, mi_unit, product_terms
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
    """f(C) = f(-A) I + (b x d) (f(-A) - f(0))/(-A), exact through order(f) - 1.

    The adjoint matrix is C = (b x d) - A I with (b x d)_{mu nu} = b_mu d_nu,
    and (b x d)^2 = A (b x d), so every power of C splits into these two parts.
    -A is one 1x1 matrix kept in the algebra's cache, so every series in it
    reads one power chain, as every series in C does (`adjoint_matrix`).
    """
    n, z = g.n, (0,) * g.n
    memo = g.cache("kappa")
    if "-A" not in memo:
        a = WeylOp(n, {(z, mi_unit(n, mu)): c for mu, c in enumerate(g.b)})
        memo["-A"] = OpMatrix(1, [[-a]])
    minus_a = memo["-A"][0, 0]
    # corr = (f(-A) - f(0))/(-A) is the one series summed: f(-A) = f(0) - A corr
    corr = matrix_series(TruncSeries(f.coeffs[1:]), memo["-A"])[0, 0]
    d_corr = [WeylOp.d(n, nu) * corr for nu in range(n)]
    rows = [[d_corr[nu].scale(b_mu) for nu in range(n)] for b_mu in g.b]
    one, f0 = WeylOp.one(n), WeylOp.constant(n, f[0])
    for mu, b_mu in enumerate(g.b):
        rows[mu][mu] = sum_of_products([(d_corr[mu], one, b_mu), (f0, one), (minus_a, corr)])
    return OpMatrix(n, rows)


def kappa_power_check(g: KappaAlgebra, order: int) -> bool:
    """C^k == (-1)^{k-1} A^{k-1} (b x d) + (-1)^k A^k I through the order,
    for every k = 1..order."""
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
    z = (0, 0)
    u, v = WeylOp.d(2, 0), WeylOp.d(2, 1)
    u_plus_v = WeylOp(2, {(z, (1, 0)): 1, (z, (0, 1)): 1})
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
            for (_, (s, t)), p, q in rows:
                w = primal[s, m, t, k] = from_numerators(p, q, den)
                dual[s, m, t, k] = from_numerators(-p, -q, den) if (s + t) % 2 else w
    return primal, dual


class KappaStarContext:
    """The closed star product of one kappa algebra, cut at one order.

    Both routes' weight tables (`_weights`) are built on first use and kept,
    with their first-order sub-tables, the entries with s + t = 1; a table
    gives the product of any f, g with deg f + deg g <= order.  So are the
    A-chains (`_a_chains`) of every polynomial it multiplies, a memo that grows
    with those polynomials: build one context per run, as `verify_kappa` does.
    """

    __slots__ = ("algebra", "order", "_tables", "_chains")

    def __init__(self, algebra: KappaAlgebra, order: int):
        self.algebra = algebra
        self.order = order
        self._tables = None
        self._chains = {}

    def _table(self, k: int) -> dict:
        """Table k of (primal, dual, primal first order, dual first order)."""
        if self._tables is None:
            full = _weights(self.order)
            first = ({key: w for key, w in t.items() if key[0] + key[2] == 1} for t in full)
            self._tables = (*full, *first)
        return self._tables[k]

    def weights(self, dual: bool = False) -> dict:
        return self._table(dual)

    def first_order_weights(self, dual: bool = False) -> dict:
        """The weights with s + t = 1: on homogeneous f_p, g_q they form the
        degree-(p + q - 1) part of f_p * g_q, since A lowers the degree by one."""
        return self._table(2 + dual)

    def a_chains(self, f: Polynomial) -> dict:
        chains = self._chains.get(f)
        if chains is None:
            chains = self._chains[f] = _a_chains(self.algebra.b, f)
        return chains


def _a_chains(b, f: Polynomial) -> dict:
    """{(s, m): the degree-m part of A^s f, which is A^s f_{s+m}} over the
    nonzero parts, with A = b . d."""
    db, us, vs = numerators(b)
    chains, h, s = {}, f, 0
    while h.form[1]:
        for m in sorted({sum(k) for k, _, _ in h.form[1]}):
            chains[s, m] = h.homogeneous_part(m)
        h = f._like(linear_form(
            (u, v, db, h.partial(mu).form) for mu, (u, v) in enumerate(zip(us, vs)) if u or v
        ))
        s += 1
    return chains


def _bidiff(ctx: KappaStarContext, f: Polynomial, g: Polynomial, weights: dict) -> Polynomial:
    """sum w(s, m, t, k) (A^s f)_m (A^t g)_k over the entries of `weights`,
    formed in one `product_terms` call over the context's memoized chains.
    Raises InsufficientOrder when deg f + deg g exceeds the context's order."""
    deg = f.degree() + g.degree()
    if deg > ctx.order:
        raise InsufficientOrder(deg, ctx.order)
    g_parts = ctx.a_chains(g)
    return f._like(product_terms(
        (fp, gp, w)
        for sm, fp in ctx.a_chains(f).items()
        for tk, gp in g_parts.items()
        if (w := weights.get(sm + tk))
    ))


def bidiff_star(
    ctx: KappaStarContext, f: Polynomial, g: Polynomial, dual: bool = False
) -> Polynomial:
    """The closed bi-differential star-product of the kappa space:

    f * g = sum w(s, m, t, k) (A^s f)_m (A^t g)_k over the degree-m and
    degree-k parts, with A = b . d and the weights w of `_weights`.
    Raises InsufficientOrder when deg f + deg g exceeds the context's order.
    """
    return _bidiff(ctx, f, g, ctx.weights(dual))


def kappa_poisson_check(ctx: KappaStarContext, f: Polynomial, g: Polynomial) -> bool:
    """First-order limit of the closed star-product.

    The leading correction of f * g is half the Lie-Poisson bracket
    {f, g} = sum (b_al x_be - b_be x_al)(d_al f)(d_be g), and the
    star-commutator correction is the full bracket.  On the homogeneous parts
    it compares, the product is formed from the first-order weights only.
    """
    first = ctx.first_order_weights()
    bracket = partial(poisson_first_order, ctx.algebra)
    return first_order_matches(lambda a, b: _bidiff(ctx, a, b, first), bracket, f, g)


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
