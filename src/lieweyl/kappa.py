"""Closed forms for the kappa-deformed space, cross-checked against the
generic engine.

The algebra has brackets [X_mu, X_nu] = b_mu X_nu - b_nu X_mu with
b_mu = i a_mu as exact Gaussian rationals.  Every closed-form matrix is one
function f(C) of the adjoint matrix, written through the single derivative
operator A = b . d (see `_function_of_c`); the results reproduce the generic
matrix-series realizations entry by entry.  The closed star product is
applied from a table of weights in two variables (see `_weights`).
"""

from __future__ import annotations

from functools import partial

from .lie import LieAlgebra, kappa_algebra
from .poly import Polynomial, merge, mi_unit
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
from .scalars import Scalar
from .series import TruncSeries, series_coeffs
from .star import first_order_matches, make_context, poisson_first_order, star
from .weyl import InsufficientOrder, OpMatrix, WeylOp, series_in_op

__all__ = [
    "KappaParams",
    "kappa_power_check",
    "kappa_closed_realization",
    "kappa_dual_closed",
    "kappa_t_closed",
    "KappaStarContext",
    "bidiff_star",
    "kappa_poisson_check",
    "verify_kappa",
]


class KappaParams:
    __slots__ = ("b",)

    def __init__(self, b):
        # b_mu = i a_mu, Scalars
        object.__setattr__(self, "b", tuple(Scalar.coerce(x) for x in b))

    def __setattr__(self, *_):
        raise AttributeError("KappaParams is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, KappaParams) and self.b == other.b

    def __hash__(self):
        return hash(self.b)

    @property
    def n(self) -> int:
        return len(self.b)

    def algebra(self) -> LieAlgebra:
        return kappa_algebra(self.b)

    def a_op(self) -> WeylOp:
        """The operator A = sum b_mu d_mu."""
        n = self.n
        z = (0,) * n
        return WeylOp(n, {(z, mi_unit(n, mu)): c for mu, c in enumerate(self.b)})


def _function_of_c(p: KappaParams, f: TruncSeries) -> OpMatrix:
    """f(C) = f(-A) I + (b x d) (f(-A) - f(0))/(-A), exact through order(f) - 1.

    The adjoint matrix is C = (b x d) - A I with (b x d)_{mu nu} = b_mu d_nu,
    and (b x d)^2 = A (b x d), so every power of C splits into these two parts.
    """
    n = p.n
    order = f.order - 1
    minus_a = -p.a_op()
    # corr = (f(-A) - f(0))/(-A) is the one series summed: f(-A) = f(0) - A corr
    corr = series_in_op(TruncSeries(f.coeffs[1:]), minus_a)
    diag = WeylOp.constant(n, f[0]) + minus_a * corr
    d_corr = [(WeylOp.d(n, nu) * corr).truncate(order) for nu in range(n)]
    rows = [[d_corr[nu].scale(b_mu) for nu in range(n)] for b_mu in p.b]
    for mu in range(n):
        rows[mu][mu] = rows[mu][mu] + diag
    return OpMatrix(n, rows)


def kappa_power_check(p: KappaParams, order: int) -> bool:
    """C^k == (-1)^{k-1} A^{k-1} (b x d) + (-1)^k A^k I through the order,
    for every k = 1..order."""
    C = adjoint_matrix(p.algebra())
    power = OpMatrix.identity(p.n)
    for k in range(1, order + 1):
        power = (power * C).truncate(order)
        t_k = TruncSeries([int(j == k) for j in range(order + 2)])
        if power != _function_of_c(p, t_k).truncate(order):
            return False
    return True


def kappa_closed_realization(p: KappaParams, order: int) -> Realization:
    """Closed-form Weyl-symmetric realization psi(C):

    xhat_mu = x_mu A/(e^A - 1) + b_mu (x . d) (1/A - 1/(e^A - 1)).
    """
    phi = _function_of_c(p, series_coeffs("psi", order + 1))
    return realization_from_phi(p.algebra(), phi, "weyl_symmetric")


def kappa_dual_closed(p: KappaParams, order: int) -> Realization:
    """Closed-form dual realization psi_tilde(C):

    yhat_mu = x_mu A/(1 - e^{-A}) + b_mu (x . d) (1/A - 1/(1 - e^{-A})).
    """
    phi = _function_of_c(p, series_coeffs("psi_tilde", order + 1))
    return realization_from_phi(p.algebra(), phi, "dual_weyl_symmetric")


def kappa_t_closed(p: KappaParams, order: int):
    """Closed-form shift matrices (exp(C), exp(-C)):

    That_{mu nu} = e^{-A} delta - b_mu d_nu (e^{-A} - 1)/A, and the inverse
    with A -> -A.
    """
    return tuple(
        _function_of_c(p, series_coeffs(kind, order + 1)) for kind in ("exp", "exp_neg")
    )


def _weights(order: int, dual: bool) -> dict:
    """{(s, m, t, k): [u^s v^t] R1(u, v)^m R2(u, v)^k} for s + m + t + k <= order.

    The closed star product is exp(E) with E = X_l (R1 - 1) + X_r (R2 - 1),
    X_l = sum_al x_al dl_al, u = b . dl and likewise on the right, where
    R1 = psi_tilde(u+v)/psi_tilde(u) and R2 = psi(u+v)/psi(v); the dual route
    interchanges psi and psi_tilde.  With the x's on the left, X_l^p/p!
    multiplies a homogeneous left factor of degree m by binom(m, p) (Euler),
    so the sum over p of binom(m, p) (R1 - 1)^p is R1^m.  The table depends
    on neither b nor n.  No series is divided: 1/psi_tilde(t) = (e^t - 1)/t
    and 1/psi(t) = (1 - e^{-t})/t are the kinds dexp and dexp_neg, so each
    ratio is a product of x-free operators in u = d_1 and v = d_2.
    """
    z = (0, 0)
    u, v = WeylOp.d(2, 0), WeylOp.d(2, 1)
    u_plus_v = WeylOp(2, {(z, (1, 0)): 1, (z, (0, 1)): 1})
    kinds = (("psi_tilde", "dexp"), ("psi", "dexp_neg"))
    powers = []
    for (f, inverse), var in zip(kinds[::-1] if dual else kinds, (u, v)):
        ratio = series_in_op(series_coeffs(f, order), u_plus_v) * series_in_op(
            series_coeffs(inverse, order), var
        )
        # R^m is needed only through degree order - m
        side = [WeylOp.one(2)]
        for m in range(1, order + 1):
            side.append((side[-1] * ratio).truncate(order - m))
        powers.append(side)
    table = {}
    for m, r1 in enumerate(powers[0]):
        for k, r2 in enumerate(powers[1][: order - m + 1]):
            for (_, (s, t)), c in (r1.truncate(order - m - k) * r2).terms.items():
                table[s, m, t, k] = c
    return table


class KappaStarContext:
    """The closed star product of one kappa space, cut at one order.

    Each route's weight table (`_weights`) is built on first use and kept; it
    gives the product of any f, g with deg f + deg g <= order.
    """

    __slots__ = ("params", "order", "_tables")

    def __init__(self, params: KappaParams, order: int):
        self.params = params
        self.order = order
        self._tables = {}

    def weights(self, dual: bool = False) -> dict:
        table = self._tables.get(dual)
        if table is None:
            table = self._tables[dual] = _weights(self.order, dual)
        return table


def _a_chains(b, f: Polynomial) -> dict:
    """{d: [f_d, A f_d, A^2 f_d, ...]} over the homogeneous parts f_d of f,
    with A = b . d; each chain stops before its first zero."""
    parts = {}
    for key, c in f.terms.items():
        parts.setdefault(sum(key), {})[key] = c
    zero = f._like({})
    chains = {}
    for d, terms in parts.items():
        h = f._like(terms)
        chain = chains[d] = []
        while h.terms:
            chain.append(h)
            h = sum((h.partial(mu).scale(c) for mu, c in enumerate(b) if c), zero)
    return chains


def bidiff_star(
    ctx: KappaStarContext, f: Polynomial, g: Polynomial, dual: bool = False
) -> Polynomial:
    """The closed bi-differential star-product of the kappa space:

    f * g = sum w(s, d - s, t, e - t) (A^s f_d)(A^t g_e) over the homogeneous
    parts f_d, g_e, with A = b . d and the weights w of `_weights`.
    Raises InsufficientOrder when deg f + deg g exceeds the context's order.
    """
    deg = f.degree() + g.degree()
    if deg > ctx.order:
        raise InsufficientOrder(deg, ctx.order)
    weights = ctx.weights(dual)
    b = ctx.params.b
    g_chains = _a_chains(b, g)
    out = {}
    for d, f_chain in _a_chains(b, f).items():
        for e, g_chain in g_chains.items():
            for s, fs in enumerate(f_chain):
                right = {}
                for t, gt in enumerate(g_chain):
                    w = weights.get((s, d - s, t, e - t))
                    if w:
                        for key, c in gt.terms.items():
                            merge(right, key, c * w)
                for key, c in (fs * g._like(right)).terms.items():
                    merge(out, key, c)
    return f._like(out)


def kappa_poisson_check(ctx: KappaStarContext, f: Polynomial, g: Polynomial) -> bool:
    """First-order limit of the closed star-product.

    The leading correction of f * g is half the Lie-Poisson bracket
    {f, g} = sum (b_al x_be - b_be x_al)(d_al f)(d_be g), and the
    star-commutator correction is the full bracket.
    """
    bracket = partial(poisson_first_order, ctx.params.algebra())
    # `bidiff_star` is looked up per call, so a wrapped module attribute is seen
    return first_order_matches(lambda a, b: bidiff_star(ctx, a, b), bracket, f, g)


def verify_kappa(p: KappaParams, order: int, trials: int, rng) -> dict:
    """Cross-validate every closed form against the generic engine."""
    g = p.algebra()
    n = p.n
    checks = [check(f"power-formula[k<={order}]", order, kappa_power_check(p, order))]

    for identity, generic_of, closed_of in (
        ("closed-realization", weyl_realization, kappa_closed_realization),
        ("closed-dual", dual_realization, kappa_dual_closed),
    ):
        generic = generic_of(g, order).xhat
        closed = closed_of(p, order).xhat
        ok = all(
            c.truncate(order) == r.truncate(order) for c, r in zip(closed, generic)
        )
        checks.append(check(identity, order, ok))

    Tc, Tci = kappa_t_closed(p, order)
    Tg, Tgi = t_realization(g, order)
    ok = all(a.truncate(order) == b.truncate(order) for a, b in ((Tc, Tg), (Tci, Tgi)))
    checks.append(check("closed-t-matrices", order, ok))
    ok = (Tc * Tci).truncate(order) == OpMatrix.identity(n)
    checks.append(check("t-inverse-product", order, ok))

    star_order = min(order, 6)
    ctx = make_context(g, star_order)
    kctx = KappaStarContext(p, star_order)
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
