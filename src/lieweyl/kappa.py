"""Closed forms for the kappa-deformed space, cross-checked against the
generic engine.

The algebra has brackets [X_mu, X_nu] = b_mu X_nu - b_nu X_mu with
b_mu = i a_mu as exact Gaussian rationals.  All closed-form objects are
expressed through the single derivative operator A = b . d, whose series
substitutions reproduce the generic matrix-series realizations entry by
entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .lie import LieAlgebra, kappa_algebra
from .poly import Polynomial, merge, mi_add, mi_degree
from .realization import (
    Realization,
    adjoint_matrix,
    check,
    dual_realization,
    random_polynomial,
    suite,
    t_realization,
    weyl_realization,
)
from .scalars import Scalar
from .series import TruncSeries, series_coeffs
from .star import first_order_matches, make_context, star
from .weyl import InsufficientOrder, OpMatrix, WeylOp, series_in_op

__all__ = [
    "KappaParams",
    "kappa_power_check",
    "kappa_closed_realization",
    "kappa_dual_closed",
    "kappa_t_closed",
    "BiDiffOperator",
    "bidiff_star",
    "kappa_poisson_check",
    "verify_kappa",
]


@dataclass(frozen=True)
class KappaParams:
    b: tuple  # b_mu = i a_mu, Scalars

    def __init__(self, b):
        object.__setattr__(self, "b", tuple(Scalar.coerce(x) for x in b))

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

    def b_outer_d(self) -> OpMatrix:
        """The matrix (b x d)_{mu nu} = b_mu d_nu."""
        n = self.n
        return OpMatrix(
            n,
            [
                [WeylOp.d(n, nu).scale(self.b[mu]) for nu in range(n)]
                for mu in range(n)
            ],
        )


def kappa_power_check(p: KappaParams, k: int, order: int) -> bool:
    """C^k == (-1)^{k-1} A^{k-1} (b x d) + (-1)^k A^k I, through the order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = p.n
    C = adjoint_matrix(p.algebra())
    direct = OpMatrix.identity(n)
    for _ in range(k):
        direct = (direct * C).truncate(order)
    A = p.a_op()
    apow = WeylOp.one(n)
    for _ in range(k - 1):
        apow = (apow * A).truncate(order)
    closed = p.b_outer_d().scale(Scalar((-1) ** (k - 1)))
    closed = OpMatrix(
        n,
        [
            [apow * closed[mu, nu] for nu in range(n)]
            for mu in range(n)
        ],
    )
    a_k = (apow * A).truncate(order).scale(Scalar((-1) ** k))
    for mu in range(n):
        closed.entries[mu][mu] = closed.entries[mu][mu] + a_k
    return direct.agrees_through(closed, order)


def _one_minus_over_t(f: TruncSeries) -> TruncSeries:
    """(1 - f(t))/t for a series with constant term 1, at order(f) - 1."""
    one = TruncSeries([Scalar(1)] + [Scalar(0)] * f.order)
    return (one - f).shift_down()


def _closed_xhat(p: KappaParams, diag: TruncSeries, corr: TruncSeries, order: int):
    """x_mu * diag(A) + b_mu (x . d) * corr(A) for each mu."""
    n = p.n
    A = p.a_op()
    diag_op = series_in_op(diag, A)
    corr_op = series_in_op(corr, A)
    xdot = WeylOp.zero(n)
    for nu in range(n):
        xdot = xdot + WeylOp.x(n, nu) * WeylOp.d(n, nu)
    out = []
    for mu in range(n):
        op = WeylOp.x(n, mu) * diag_op
        if p.b[mu]:
            op = op + (xdot * corr_op).scale(p.b[mu])
        out.append(op)
    return out


def kappa_closed_realization(p: KappaParams, order: int) -> Realization:
    """Closed-form Weyl-symmetric realization:

    xhat_mu = x_mu A/(e^A - 1) + b_mu (x . d) (1/A - 1/(e^A - 1)).
    A/(e^A - 1) is the psi_tilde series and the correction is
    (1 - psi_tilde(A))/A, a genuine power series.
    """
    pt = series_coeffs("psi_tilde", order + 1)
    xhat = _closed_xhat(p, pt.truncate(order), _one_minus_over_t(pt), order)
    g = p.algebra()
    phi = _extract_phi(xhat, order)
    return Realization(g, xhat, phi, "weyl_symmetric", order)


def kappa_dual_closed(p: KappaParams, order: int) -> Realization:
    """Closed-form dual realization:

    yhat_mu = x_mu A/(1 - e^{-A}) + b_mu (x . d) (1/A - 1/(1 - e^{-A})),
    i.e. the psi series with correction (1 - psi(A))/A.
    """
    ps = series_coeffs("psi", order + 1)
    xhat = _closed_xhat(p, ps.truncate(order), _one_minus_over_t(ps), order)
    g = p.algebra()
    phi = _extract_phi(xhat, order)
    return Realization(g, xhat, phi, "dual_weyl_symmetric", order)


def _extract_phi(xhat, order) -> OpMatrix:
    """Recover the x-free coefficient matrix from x-degree-1 operators."""
    n = xhat[0].n
    rows = []
    for mu in range(n):
        row = [WeylOp.zero(n, valid_order=order) for _ in range(n)]
        for (a, b), c in xhat[mu].terms.items():
            al = next(i for i, e in enumerate(a) if e)
            row[al] = row[al] + WeylOp(n, {((0,) * n, b): c}, valid_order=order)
        rows.append(row)
    return OpMatrix(n, rows)


def kappa_t_closed(p: KappaParams, order: int):
    """Closed-form shift matrices:

    That_{mu nu} = e^{-A} delta - b_mu d_nu (e^{-A} - 1)/A, and the inverse
    with A -> -A.
    """
    n = p.n
    A = p.a_op()
    exp_neg = series_in_op(series_coeffs("exp_neg", order), A)
    exp_pos = series_in_op(series_coeffs("exp", order), A)
    # (e^{-t} - 1)/t and (e^t - 1)/t
    f_neg = series_in_op(-series_coeffs("dexp_neg", order), A)
    f_pos = series_in_op(series_coeffs("dexp", order), A)

    def build(diag, f):
        rows = []
        for mu in range(n):
            row = []
            for nu in range(n):
                op = WeylOp.zero(n, valid_order=order)
                if mu == nu:
                    op = op + diag
                if p.b[mu]:
                    op = op - (WeylOp.d(n, nu) * f).scale(p.b[mu])
                row.append(op.truncate(order))
            rows.append(row)
        return OpMatrix(n, rows)

    return build(exp_neg, f_neg), build(exp_pos, f_pos)


class BiDiffOperator:
    """Bi-differential operator: {(i, j): Polynomial coefficient in x}.

    The multi-index i differentiates the left factor, j the right factor.
    Left/right derivative symbols and x-coefficients are treated as mutually
    commuting bookkeeping, so composition is a commutative product.
    """

    __slots__ = ("n", "terms", "order")

    def __init__(self, n: int, terms=None, order: int = 0):
        self.n = n
        self.order = order
        self.terms = {}
        if terms:
            for (i, j), poly in terms.items():
                if mi_degree(i) + mi_degree(j) <= order and not poly.is_zero():
                    self.terms[(tuple(i), tuple(j))] = poly

    @classmethod
    def identity(cls, n, order):
        z = (0,) * n
        return cls(n, {(z, z): Polynomial.one(n)}, order)

    def __add__(self, other):
        out = dict(self.terms)
        for k, poly in other.terms.items():
            s = out.get(k)
            s = poly if s is None else s + poly
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        op = BiDiffOperator(self.n, order=min(self.order, other.order))
        op.terms = {
            k: v
            for k, v in out.items()
            if mi_degree(k[0]) + mi_degree(k[1]) <= op.order
        }
        return op

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = {}
        for (i1, j1), p1 in self.terms.items():
            d1 = mi_degree(i1) + mi_degree(j1)
            for (i2, j2), p2 in other.terms.items():
                if d1 + mi_degree(i2) + mi_degree(j2) > order:
                    continue
                key = (mi_add(i1, i2), mi_add(j1, j2))
                prod = p1 * p2
                s = out.get(key)
                s = prod if s is None else s + prod
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        op = BiDiffOperator(self.n, order=order)
        op.terms = out
        return op

    def scale(self, c) -> "BiDiffOperator":
        op = BiDiffOperator(self.n, order=self.order)
        op.terms = {k: poly.scale(c) for k, poly in self.terms.items()}
        return op

    def apply(self, f: Polynomial, g: Polynomial) -> Polynomial:
        if f.degree() + g.degree() > self.order:
            raise InsufficientOrder(f.degree() + g.degree(), self.order)
        out = Polynomial.zero(self.n)
        for (i, j), poly in self.terms.items():
            df = _multi_partial(f, i)
            if df.is_zero():
                continue
            dg = _multi_partial(g, j)
            if dg.is_zero():
                continue
            out = out + poly * df * dg
        return out


def _multi_partial(f: Polynomial, exps) -> Polynomial:
    for mu, e in enumerate(exps):
        for _ in range(e):
            f = f.partial(mu)
            if f.is_zero():
                return f
    return f


def _power_expansion(b, p: int) -> dict:
    """Multinomial coefficients of (sum_mu b_mu z_mu)^p as {exps: Scalar}."""
    n = len(b)
    out = {(0,) * n: Scalar(1)}
    for _ in range(p):
        nxt = {}
        for exps, c in out.items():
            for mu in range(n):
                if not b[mu]:
                    continue
                key = exps[:mu] + (exps[mu] + 1,) + exps[mu + 1 :]
                merge(nxt, key, c * b[mu])
        out = nxt
    return out


def _bidiff_exponent(p: KappaParams, order: int, dual: bool) -> BiDiffOperator:
    """sum_al x_al (Delta d_al - Delta_0 d_al) as a BiDiffOperator.

    Delta d_al = left_d_al R1(A_left, A_right) + right_d_al R2(A_left, A_right)
    with R1 = psi_tilde(u+v)/psi_tilde(u), R2 = psi(u+v)/psi(v); the dual
    version interchanges psi and psi_tilde.
    """
    from .series import BiTruncSeries

    n = p.n
    psi = series_coeffs("psi", order)
    pst = series_coeffs("psi_tilde", order)
    left_fn, right_fn = (psi, pst) if dual else (pst, psi)
    r1 = BiTruncSeries.from_univariate(left_fn, "u+v", order) / BiTruncSeries.from_univariate(
        left_fn, "u", order
    )
    r2 = BiTruncSeries.from_univariate(right_fn, "u+v", order) / BiTruncSeries.from_univariate(
        right_fn, "v", order
    )
    one = BiTruncSeries({(0, 0): Scalar(1)}, order)
    r1 = r1 - one
    r2 = r2 - one
    # substitute u -> b . left_d, v -> b . right_d
    pow_cache = {}

    def expand(q):
        if q not in pow_cache:
            pow_cache[q] = _power_expansion(p.b, q)
        return pow_cache[q]

    z = (0,) * n
    exponent = BiDiffOperator(n, order=order)
    for al in range(n):
        x_al = Polynomial.variable(n, al)
        terms = {}
        for (pu, pv), c in r1.terms.items():
            for iu, cu in expand(pu).items():
                for iv, cv in expand(pv).items():
                    i = mi_add(iu, z[:al] + (1,) + z[al + 1 :])
                    if mi_degree(i) + mi_degree(iv) > order:
                        continue
                    key = (i, iv)
                    s = terms.get(key, Scalar(0)) + c * cu * cv
                    terms[key] = s
        for (pu, pv), c in r2.terms.items():
            for iu, cu in expand(pu).items():
                for iv, cv in expand(pv).items():
                    j = mi_add(iv, z[:al] + (1,) + z[al + 1 :])
                    if mi_degree(iu) + mi_degree(j) > order:
                        continue
                    key = (iu, j)
                    s = terms.get(key, Scalar(0)) + c * cu * cv
                    terms[key] = s
        exponent = exponent + BiDiffOperator(
            n, {k: x_al.scale(c) for k, c in terms.items() if c}, order
        )
    return exponent


def bidiff_star(
    p: KappaParams, f: Polynomial, g: Polynomial, order: int, dual: bool = False
) -> Polynomial:
    """The closed bi-differential star-product of the kappa space."""
    if f.degree() + g.degree() > order:
        raise InsufficientOrder(f.degree() + g.degree(), order)
    E = _bidiff_exponent(p, order, dual)
    total = BiDiffOperator.identity(p.n, order)
    power = BiDiffOperator.identity(p.n, order)
    k = 1
    inv_fact = Scalar(1)
    while True:
        power = power * E
        if not power.terms:
            break
        inv_fact = inv_fact / Scalar(k)
        total = total + power.scale(inv_fact)
        k += 1
    return total.apply(f, g)


def kappa_poisson_check(p: KappaParams, f: Polynomial, g: Polynomial) -> bool:
    """First-order limit of the closed star-product.

    The leading correction of f * g is half the bracket
    {f, g} = sum (b_al x_be - b_be x_al)(d_al f)(d_be g), and the
    star-commutator correction is the full bracket.
    """
    order = max(f.degree(), 0) + max(g.degree(), 0)
    # `bidiff_star` is looked up per call, so a wrapped module attribute is seen
    return first_order_matches(
        lambda a, b: bidiff_star(p, a, b, order), partial(_kappa_bracket, p), f, g
    )


def verify_kappa(p: KappaParams, order: int, trials: int, rng) -> dict:
    """Cross-validate every closed form against the generic engine."""
    g = p.algebra()
    n = p.n
    ok = all(kappa_power_check(p, k, order) for k in range(1, order + 1))
    checks = [check(f"power-formula[k<={order}]", order, ok)]

    for identity, generic_of, closed_of in (
        ("closed-realization", weyl_realization, kappa_closed_realization),
        ("closed-dual", dual_realization, kappa_dual_closed),
    ):
        generic = generic_of(g, order).xhat
        closed = closed_of(p, order).xhat
        ok = all(
            c.d_part_degree_le(order) == r.d_part_degree_le(order)
            for c, r in zip(closed, generic)
        )
        checks.append(check(identity, order, ok))

    Tc, Tci = kappa_t_closed(p, order)
    Tg, Tgi = t_realization(g, order)
    ok = Tc.agrees_through(Tg, order) and Tci.agrees_through(Tgi, order)
    checks.append(check("closed-t-matrices", order, ok))
    ok = (Tc * Tci).agrees_through(OpMatrix.identity(n), order)
    checks.append(check("t-inverse-product", order, ok))

    star_order = min(order, 6)
    ctx = make_context(g, star_order)
    deg = min(3, star_order // 2)
    ok = True
    ok_pois = True
    for _ in range(trials):
        f = random_polynomial(rng, n, deg)
        h = random_polynomial(rng, n, deg)
        ok = ok and bidiff_star(p, f, h, star_order) == star(ctx, f, h)
        ok = ok and bidiff_star(p, f, h, star_order, dual=True) == star(ctx, f, h, "dual")
        ok_pois = ok_pois and kappa_poisson_check(p, f, h)
    checks.append(check(f"bidiff-vs-generic[trials={trials}]", star_order, ok))
    checks.append(check(f"poisson-first-order[trials={trials}]", star_order, ok_pois))
    return suite(order, checks)


def _kappa_bracket(p: KappaParams, f: Polynomial, g: Polynomial) -> Polynomial:
    n = p.n
    out = Polynomial.zero(n)
    for al in range(n):
        df = f.partial(al)
        if df.is_zero():
            continue
        for be in range(n):
            dg = g.partial(be)
            if dg.is_zero():
                continue
            lin = Polynomial.variable(n, be).scale(p.b[al]) - Polynomial.variable(
                n, al
            ).scale(p.b[be])
            if not lin.is_zero():
                out = out + lin * df * dg
    return out
