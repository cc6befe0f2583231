"""Realizations of Lie algebras inside the truncated Weyl algebra.

Builds the adjoint operator matrix, the Weyl-symmetric realization, its
left-right dual, the shift-operator matrices exp(+-C), and the verification
suites (commutator closure, symmetrization, the exponential-matrix
identities).

Index convention: realizations are handed around as the coefficient matrix
P with xhat_mu = sum_al x_al * P[mu][al]; the Weyl-symmetric choice is
P = psi(C).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product

from .lie import LieAlgebra
from .poly import Polynomial, mi_unit
from .scalars import Scalar
from .series import series_coeffs
from .weyl import INF, InsufficientOrder, OpMatrix, WeylOp, matrix_series, sum_of_products

__all__ = [
    "Realization",
    "adjoint_matrix",
    "weyl_realization",
    "dual_realization",
    "t_realization",
    "realization_from_phi",
    "verify_realization",
    "verify_symmetrization",
    "verify_shift_relations",
    "verify_appendix",
    "random_rational",
    "random_polynomial",
    "check",
    "suite",
    "residual_check",
    "closure_residual",
    "x_free_bracket",
    "x_linear_bracket",
]


class Realization:
    __slots__ = ("algebra", "xhat", "phi", "kind", "order")

    def __init__(self, algebra: LieAlgebra, xhat: list, phi: OpMatrix, kind: str, order):
        self.algebra = algebra
        self.xhat = xhat  # n WeylOps, each of the form sum_al x_al * (series in d)
        self.phi = phi  # coefficient matrix, x-free entries
        self.kind = kind
        self.order = order  # valid derivative order of the coefficient series

    @property
    def guaranteed_order(self):
        """Order through which commutators of the xhat are trustworthy."""
        return self.order if self.order is INF else self.order - 1


def adjoint_matrix(g: LieAlgebra) -> OpMatrix:
    """The operator matrix C_{mu nu} = sum_al C_{mu al nu} d_al."""
    n = g.n
    z = (0,) * n
    units = [mi_unit(n, al) for al in range(n)]
    rows = [
        [WeylOp(n, {(z, e): g.c[mu][al][nu] for al, e in enumerate(units)}) for nu in range(n)]
        for mu in range(n)
    ]
    return OpMatrix(n, rows)


def _contract_x(row, valid_order) -> WeylOp:
    """sum_al x_al * row[al], valid through at most valid_order."""
    n = row[0].n
    return sum_of_products(
        ((WeylOp.x(n, al), op) for al, op in enumerate(row)), valid_order
    )


def x_free_bracket(F: WeylOp, row) -> WeylOp:
    """[F, sum_al x_al row[al]] = sum_al (d_al F) row[al] for x-free F and row."""
    return sum_of_products((F.deriv_d(al), op) for al, op in enumerate(row))


def x_linear_bracket(P: OpMatrix, mu: int, Q: OpMatrix, nu: int) -> WeylOp:
    """[xhat_mu, yhat_nu] for xhat = sum_al x_al P[., al], yhat likewise from Q.

    By [x_al A, x_be B] = x_al (d_be A) B - x_be (d_al B) A it is sum_ga x_ga
    ([P[mu, ga], yhat_nu] - [Q[nu, ga], xhat_mu]): derivatives and products of
    x-free series only, valid through one less than the lower order of P, Q.
    """
    p_row, q_row = P.entries[mu], Q.entries[nu]
    R = [
        x_free_bracket(p, q_row) - x_free_bracket(q, p_row) for p, q in zip(p_row, q_row)
    ]
    return _contract_x(R, min(P.valid_order(), Q.valid_order()) - 1)


def realization_from_phi(g: LieAlgebra, phi: OpMatrix, kind="custom") -> Realization:
    if any(op.xdeg() for row in phi.entries for op in row):
        raise ValueError("realization coefficients must be x-free")
    vo = phi.valid_order()
    return Realization(g, [_contract_x(row, vo) for row in phi.entries], phi, kind, vo)


def weyl_realization(g: LieAlgebra, order: int) -> Realization:
    """The Weyl-symmetric realization xhat_mu = sum_al x_al psi(C)_{mu al}."""
    phi = matrix_series(series_coeffs("psi", order), adjoint_matrix(g))
    return realization_from_phi(g, phi, "weyl_symmetric")


def dual_realization(g: LieAlgebra, order: int) -> Realization:
    """The dual realization yhat_mu = sum_al x_al psi_tilde(C)_{mu al}."""
    phi = matrix_series(series_coeffs("psi_tilde", order), adjoint_matrix(g))
    return realization_from_phi(g, phi, "dual_weyl_symmetric")


def t_realization(g: LieAlgebra, order: int):
    """The shift-operator matrices (exp(C), exp(-C))."""
    C = adjoint_matrix(g)
    return (
        matrix_series(series_coeffs("exp", order), C),
        matrix_series(series_coeffs("exp_neg", order), C),
    )


# -- verification suites -----------------------------------------------------
#
# A report is plain data that the CLI prints as it is: a suite is
# {"pass", "order_checked", "checks"} and each check is
# {"identity", "order_checked", "pass"}, plus a "witness" if it failed and
# can name where.


def check(identity, order, ok, witness=None) -> dict:
    out = {"identity": identity, "order_checked": order, "pass": bool(ok)}
    if witness is not None:
        out["witness"] = witness
    return out


def suite(order, checks) -> dict:
    return {
        "pass": all(c["pass"] for c in checks),
        "order_checked": order,
        "checks": checks,
    }


def residual_check(identity, order, residuals, cut=None) -> dict:
    """Pass when every residual vanishes through derivative order `cut`.

    `residuals` yields (label, WeylOp) pairs and is consumed up to the first
    residual that does not vanish; the witness is that label followed by the
    residual's first term.  `cut` defaults to `order`.
    """
    cut = order if cut is None else cut
    for label, res in residuals:
        res = res.truncate(cut)
        if not res.is_zero():
            (a, b), coeff = res.sorted_terms()[0]
            witness = {**label, "x": list(a), "d": list(b), "coeff": str(coeff)}
            return check(identity, order, False, witness)
    return check(identity, order, True)


def _minus(res: WeylOp, terms) -> WeylOp:
    """res - sum c * op over the (c, op) pairs with c != 0."""
    for c, op in terms:
        if c:
            res = res - op.scale(c)
    return res


def _over_cube(n, residual, **label):
    """(label with 1-based "indices", residual(i, j, k)) for every index triple."""
    for ijk in product(range(n), repeat=3):
        yield {**label, "indices": [i + 1 for i in ijk]}, residual(*ijk)


def closure_residual(g: LieAlgebra, real: Realization):
    """[xhat_mu, xhat_nu] - sum_al C_{mu nu al} xhat_al for mu < nu."""
    for mu, nu in combinations(range(g.n), 2):
        comm = x_linear_bracket(real.phi, mu, real.phi, nu)
        yield mu, nu, _minus(comm, zip(g.c[mu][nu], real.xhat))


def verify_realization(g: LieAlgebra, phi: OpMatrix, order) -> dict:
    """Check that xhat_mu = sum_al x_al phi[mu][al] closes the bracket.

    The check is a coefficientwise statement through the guaranteed order
    (one less than the coefficient order, by the truncation rule).  Every
    failing pair is reported after the overall verdict.
    """
    real = realization_from_phi(g, phi)
    guaranteed = min(real.guaranteed_order, order - 1 if order is not INF else INF)
    pairs = [
        residual_check(f"closure[{mu + 1},{nu + 1}]", guaranteed, [({}, res)])
        for mu, nu, res in closure_residual(g, real)
    ]
    failed = [c for c in pairs if not c["pass"]]
    return suite(guaranteed, [check("closure", guaranteed, not failed), *failed])


def random_rational(rng) -> Scalar:
    num = rng.randint(-9, 9)
    den = rng.randint(1, 9)
    return Scalar(num) / Scalar(den)


def random_polynomial(rng, n: int, max_degree: int, terms: int = 4) -> Polynomial:
    out = Polynomial.zero(n)
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        out = out + Polynomial(n, {tuple(exps): random_rational(rng)})
    return out


def verify_symmetrization(g: LieAlgebra, order, m_max, trials, rng) -> dict:
    """(sum k_mu xhat_mu)^m |> 1 == (sum k_mu x_mu)^m for random rational k."""
    if m_max > order:
        raise InsufficientOrder(m_max, order)
    real = weyl_realization(g, order)
    n = g.n
    checks = []
    for trial in range(trials):
        ks = [random_rational(rng) for _ in range(n)]
        op = WeylOp.zero(n, valid_order=order)
        lin = Polynomial.zero(n)
        for mu in range(n):
            op = op + real.xhat[mu].scale(ks[mu])
            lin = lin + Polynomial.variable(n, mu).scale(ks[mu])
        acted = expected = Polynomial.one(n)
        for _ in range(m_max):
            acted, expected = op.apply(acted), expected * lin
            if acted != expected:
                break
        identity = f"symmetrization[trial={trial},k={','.join(map(str, ks))}]"
        checks.append(check(identity, m_max, acted == expected))
    return suite(m_max, checks)


def verify_shift_relations(g: LieAlgebra, order) -> dict:
    """Operator-level relations of the extended algebra for (xhat, That^{+-1})."""
    n = g.n
    real = weyl_realization(g, order)
    T, Tinv = t_realization(g, order)

    # [That_{mu nu}, That_{al be}] = 0 because every entry of T and Tinv is
    # an x-free series in d, and those commute exactly
    x_free = all(op.xdeg() == 0 for M in (T, Tinv) for row in M.entries for op in row)
    checks = [check("T-commutativity", order, x_free)]

    # [That_{mu nu}, xhat_lam] = sum_be C_{mu lam be} That_{be nu}
    def t_x(mu, nu, lam):
        comm = x_free_bracket(T[mu, nu], real.phi.entries[lam])
        return _minus(comm, ((g.c[mu][lam][be], T[be, nu]) for be in range(n)))

    # [Tinv_{mu nu}, xhat_lam] = sum_al C_{lam al nu} Tinv_{mu al}
    def tinv_x(mu, nu, lam):
        comm = x_free_bracket(Tinv[mu, nu], real.phi.entries[lam])
        return _minus(comm, ((g.c[lam][al][nu], Tinv[mu, al]) for al in range(n)))

    checks.append(residual_check("T-x-commutator", order - 1, _over_cube(n, t_x)))
    checks.append(residual_check("Tinv-x-commutator", order - 1, _over_cube(n, tinv_x)))

    # sum_al T_{mu al} Tinv_{al nu} = delta_{mu nu}, both orders
    ident = OpMatrix.identity(n)
    ok = all((A * B).truncate(order) == ident for A, B in ((T, Tinv), (Tinv, T)))
    checks.append(check("T-Tinv-inverse", order, ok))

    # normalization: That_{mu nu} |> 1 = delta_{mu nu}
    one = Polynomial.one(n)
    ok = all(
        T[mu, nu].apply(one)
        == (Polynomial.one(n) if mu == nu else Polynomial.zero(n))
        for mu in range(n)
        for nu in range(n)
    )
    checks.append(check("T-normalization", order, ok))
    return suite(order - 1, checks)


def verify_appendix(g: LieAlgebra, order, m_max) -> dict:
    """Exponential-matrix identities underpinning the dual realization."""
    n = g.n
    C = adjoint_matrix(g)
    powers = [OpMatrix.identity(n)]
    for _ in range(m_max):
        powers.append(powers[-1] * C)

    # D[m][mu] = sum_k (-1)^k binom(m, k) C^k K_mu C^(m-k) and
    # E[m][mu] = sum_{k>=1} (-1)^(k-1) binom(m, k) C^(k-1) K_mu C^(m-k), where
    # (K_mu)_{al be} = C_{mu al be}; by Pascal's rule D_m = D_{m-1} C - C D_{m-1}
    # and E_m = E_{m-1} C + D_{m-1}, from D_0 = K_mu and E_0 = 0
    D = [[OpMatrix(n, [[WeylOp.constant(n, c) for c in r] for r in K]) for K in g.c]]
    E = [[OpMatrix.zero(n)] * n]
    for _ in range(m_max):
        E.append([e * C + d for e, d in zip(E[-1], D[-1])])
        D.append([d * C - C * d for d in D[-1]])

    # identity relating C^m to the structure constants (power m)
    def power_contraction(m, mu, lam, nu):
        lhs = WeylOp.zero(n)
        for al in range(n):
            c = g.c[al][lam][nu]
            if c:
                lhs = lhs + powers[m][mu, al].scale(c)
        return lhs - D[m][mu][lam, nu]

    # formal derivative of C^m
    def power_derivative(m, lam, mu, nu):
        return powers[m][mu, nu].deriv_d(lam) - E[m][mu][lam, nu]

    def over_powers(residual):
        for m in range(1, m_max + 1):
            yield from _over_cube(n, partial(residual, m), m=m)

    checks = [
        residual_check(identity, m_max, over_powers(residual), cut=INF)
        for identity, residual in (
            ("power-contraction", power_contraction),
            ("power-derivative", power_derivative),
        )
    ]

    # derivative of the matrix exponential
    T_hi = matrix_series(series_coeffs("exp", order + 1), C)
    T = T_hi.truncate(order)
    F = matrix_series(series_coeffs("dexp_neg", order), C)

    def combination(terms):
        """sum c * A * B over the (c, A, B) with c != 0, valid through order."""
        pairs = [(A.scale(c), B) for c, A, B in terms if c]
        if not pairs:
            return WeylOp.zero(n, valid_order=order)
        return sum_of_products(pairs, order)

    def exp_derivative(lam, mu, nu):
        lhs = T_hi[mu, nu].deriv_d(lam).truncate(order)
        rhs = combination(
            (g.c[mu][al][be], F[lam, al], T[be, nu])
            for al, be in product(range(n), repeat=2)
        )
        return lhs - rhs

    checks.append(
        residual_check("exp-derivative", order, _over_cube(n, exp_derivative))
    )

    # triple contraction equals the negated structure constants; its inner
    # sum M[mu, nu, al] = sum_{be rho} C_{be rho al} Tinv_{mu rho} Tinv_{nu be}
    # does not depend on kap
    Tinv = matrix_series(series_coeffs("exp_neg", order), C)
    M = {
        (mu, nu, al): combination(
            (g.c[be][rho][al], Tinv[mu, rho], Tinv[nu, be])
            for be, rho in product(range(n), repeat=2)
        )
        for mu, nu, al in product(range(n), repeat=3)
    }

    def triple_contraction(mu, nu, kap):
        acc = sum_of_products((T[al, kap], M[mu, nu, al]) for al in range(n))
        return acc + WeylOp.constant(n, g.c[mu][nu][kap])

    checks.append(
        residual_check("triple-contraction", order, _over_cube(n, triple_contraction))
    )
    return suite(order, checks)
