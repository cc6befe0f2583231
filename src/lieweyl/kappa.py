"""Closed forms for the kappa-deformed space, cross-checked against the
generic engine.

The algebra has brackets [X_mu, X_nu] = b_mu X_nu - b_nu X_mu with
b_mu = i a_mu as exact Gaussian rationals.  Every closed-form matrix is one
function f(C) of the adjoint matrix, written through the single derivative
operator A = b . d (see `_function_of_c`); the results reproduce the generic
matrix-series realizations entry by entry.
"""

from __future__ import annotations

from functools import partial

from .lie import LieAlgebra, kappa_algebra
from .poly import Polynomial, TermMap, merge, mi_add, mi_degree, mi_unit
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
from .series import BiTruncSeries, TruncSeries, series_coeffs
from .star import first_order_matches, make_context, poisson_first_order, star
from .weyl import InsufficientOrder, OpMatrix, WeylOp, series_in_op

__all__ = [
    "KappaParams",
    "kappa_power_check",
    "kappa_closed_realization",
    "kappa_dual_closed",
    "kappa_t_closed",
    "BiDiffOperator",
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
        op = WeylOp.zero(n)
        for mu in range(n):
            if self.b[mu]:
                op = op + WeylOp.d(n, mu).scale(self.b[mu])
        return op


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


class BiDiffOperator(TermMap):
    """Bi-differential operator: sum c x^a dl^i dr^j, as {a + i + j: Scalar}.

    A key is the flat concatenation of the x-exponents a, the left
    derivative i (acting on the left factor) and the right derivative j.
    Symbols are treated as mutually commuting bookkeeping, so composition is
    a commutative product, cut at |i| + |j| <= order.
    """

    __slots__ = ("order", "_groups")

    KEY_PARTS = (
        ("x", "x", "x"),
        ("left", "dl", "\\overleftarrow{\\partial}"),
        ("right", "dr", "\\overrightarrow{\\partial}"),
    )

    def __init__(self, n: int, terms=None, order: int = 0):
        self.order = order
        self._groups = None
        if terms:
            terms = {k: c for k, c in terms.items() if mi_degree(k[n:]) <= order}
        super().__init__(n, terms)

    def _like(self, terms, order=None):
        out = TermMap._like(self, terms)
        out.order = self.order if order is None else order
        out._groups = None
        return out

    def _split(self, key):
        n = self.n
        return key[:n], key[n : 2 * n], key[2 * n :]

    @classmethod
    def identity(cls, n, order):
        return cls(n, {(0,) * (3 * n): Scalar(1)}, order)

    def __mul__(self, other):
        self._check(other)
        n, order = self.n, min(self.order, other.order)
        right = sorted((mi_degree(k[n:]), k, c) for k, c in other.terms.items())
        out = {}
        for k1, c1 in self.terms.items():
            room = order - mi_degree(k1[n:])
            for d2, k2, c2 in right:
                if d2 > room:
                    break
                merge(out, mi_add(k1, k2), c1 * c2)
        return self._like(out, order)

    def _by_bidegree(self) -> list:
        """[(|i|, |j|, i, j, [(x, c), ...])]: the terms grouped by (i, j), once."""
        if self._groups is None:
            n = self.n
            groups = {}
            for k, c in self.terms.items():
                groups.setdefault((k[n : 2 * n], k[2 * n :]), []).append((k[:n], c))
            self._groups = [
                (mi_degree(i), mi_degree(j), i, j, xs) for (i, j), xs in groups.items()
            ]
        return self._groups

    def apply(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """sum c x^a (d^i f)(d^j g), skipping every |i| > deg f or |j| > deg g."""
        deg_f, deg_g = f.degree(), g.degree()
        if deg_f + deg_g > self.order:
            raise InsufficientOrder(deg_f + deg_g, self.order)
        d_f, d_g = {}, {}
        out = {}
        for di, dj, i, j, xs in self._by_bidegree():
            if di > deg_f or dj > deg_g:
                continue
            fi = d_f.get(i)
            if fi is None:
                fi = d_f[i] = _multi_partial(f, i)
            gj = d_g.get(j)
            if gj is None:
                gj = d_g[j] = _multi_partial(g, j)
            fg = (fi * gj).terms
            for x, c in xs:
                for exps, coeff in fg.items():
                    merge(out, mi_add(x, exps), c * coeff)
        return f._like(out)


def _multi_partial(f: Polynomial, exps) -> Polynomial:
    for mu, e in enumerate(exps):
        for _ in range(e):
            f = f.partial(mu)
            if f.is_zero():
                return f
    return f


def _bidiff_exponent(p: KappaParams, order: int, dual: bool) -> BiDiffOperator:
    """sum_al x_al (Delta d_al - Delta_0 d_al) as a BiDiffOperator.

    Delta d_al = left_d_al R1(A_left, A_right) + right_d_al R2(A_left, A_right)
    with R1 = psi_tilde(u+v)/psi_tilde(u), R2 = psi(u+v)/psi(v); the dual
    version interchanges psi and psi_tilde.
    """
    n = p.n
    z = (0,) * n
    kinds = ("psi", "psi_tilde") if dual else ("psi_tilde", "psi")
    one = BiTruncSeries({(0, 0): Scalar(1)}, order)
    # substitute u -> b . left_d, v -> b . right_d, through the powers of b . z
    lin = Polynomial(n, {mi_unit(n, mu): b for mu, b in enumerate(p.b)})
    powers = [Polynomial.one(n)]
    for _ in range(order):
        powers.append(powers[-1] * lin)
    exponent = {}
    for side, (kind, var) in enumerate(zip(kinds, ("u", "v"))):
        fn = series_coeffs(kind, order)
        r = BiTruncSeries.from_univariate(fn, "u+v", order)
        r = r / BiTruncSeries.from_univariate(fn, var, order) - one
        # c * cu * cv does not depend on al, so it is formed once per side
        subs = [
            (z + iu + iv, c * cu * cv)
            for (pu, pv), c in r.terms.items()
            for iu, cu in powers[pu].terms.items()
            for iv, cv in powers[pv].terms.items()
        ]
        for al in range(n):
            x_al = mi_unit(n, al)
            # x_al times d_al on this side's factor, in the key layout x + i + j
            shift = x_al + (x_al + z, z + x_al)[side]
            for key, c in subs:
                merge(exponent, mi_add(key, shift), c)
    return BiDiffOperator(n, exponent, order)


class KappaStarContext:
    """The closed star operators exp(E) of one kappa space, cut at one order.

    Each route's operator is built on first use and kept.  Every term of E
    carries a derivative, so truncation commutes with exp: the operator cut
    at this order gives, through `BiDiffOperator.apply`'s bidegree pruning,
    the product of any f, g with deg f + deg g <= order.
    """

    __slots__ = ("params", "order", "_operators")

    def __init__(self, params: KappaParams, order: int):
        self.params = params
        self.order = order
        self._operators = {}

    def operator(self, dual: bool = False) -> BiDiffOperator:
        op = self._operators.get(dual)
        if op is None:
            op = self._operators[dual] = _exp(
                _bidiff_exponent(self.params, self.order, dual)
            )
        return op


def _exp(E: BiDiffOperator) -> BiDiffOperator:
    """sum_k E^k / k!, which ends because every term of E carries a derivative."""
    total = power = BiDiffOperator.identity(E.n, E.order)
    k = 1
    inv_fact = Scalar(1)
    while True:
        power = power * E
        if not power.terms:
            return total
        inv_fact = inv_fact / Scalar(k)
        total = total + power.scale(inv_fact)
        k += 1


def bidiff_star(
    ctx: KappaStarContext, f: Polynomial, g: Polynomial, dual: bool = False
) -> Polynomial:
    """The closed bi-differential star-product of the kappa space.

    Raises InsufficientOrder when deg f + deg g exceeds the context's order.
    """
    return ctx.operator(dual).apply(f, g)


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
