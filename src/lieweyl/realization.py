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

from dataclasses import dataclass
from math import comb

from .lie import LieAlgebra
from .poly import Polynomial, mi_degree
from .scalars import Scalar
from .series import series_coeffs
from .weyl import INF, InsufficientOrder, OpMatrix, WeylOp, matrix_series

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
]


@dataclass
class Realization:
    algebra: LieAlgebra
    xhat: list  # n WeylOps, each of the form sum_al x_al * (series in d)
    phi: OpMatrix  # coefficient matrix, x-free entries
    kind: str
    order: float  # valid derivative order of the coefficient series

    @property
    def guaranteed_order(self):
        """Order through which commutators of the xhat are trustworthy."""
        return self.order if self.order is INF else self.order - 1


def adjoint_matrix(g: LieAlgebra) -> OpMatrix:
    """The operator matrix C_{mu nu} = sum_al C_{mu al nu} d_al."""
    n = g.n
    rows = []
    for mu in range(n):
        row = []
        for nu in range(n):
            op = WeylOp.zero(n)
            for al in range(n):
                c = g.c[mu][al][nu]
                if c:
                    op = op + WeylOp.d(n, al).scale(c)
            row.append(op)
        rows.append(row)
    return OpMatrix(n, rows)


def _contract_x(g: LieAlgebra, phi: OpMatrix) -> list:
    """xhat_mu = sum_al x_al * phi[mu][al]."""
    n = g.n
    return [
        sum(
            (WeylOp.x(n, al) * phi[mu, al] for al in range(n)),
            WeylOp.zero(n, valid_order=phi.valid_order()),
        )
        for mu in range(n)
    ]


def realization_from_phi(g: LieAlgebra, phi: OpMatrix, kind="custom") -> Realization:
    for mu in range(g.n):
        for nu in range(g.n):
            if phi[mu, nu].xdeg() != 0:
                raise ValueError("realization coefficients must be x-free")
    return Realization(g, _contract_x(g, phi), phi, kind, phi.valid_order())


def weyl_realization(g: LieAlgebra, order: int) -> Realization:
    """The Weyl-symmetric realization xhat_mu = sum_al x_al psi(C)_{mu al}."""
    phi = matrix_series(series_coeffs("psi", order), adjoint_matrix(g))
    return Realization(g, _contract_x(g, phi), phi, "weyl_symmetric", order)


def dual_realization(g: LieAlgebra, order: int) -> Realization:
    """The dual realization yhat_mu = sum_al x_al psi_tilde(C)_{mu al}."""
    phi = matrix_series(series_coeffs("psi_tilde", order), adjoint_matrix(g))
    return Realization(g, _contract_x(g, phi), phi, "dual_weyl_symmetric", order)


def t_realization(g: LieAlgebra, order: int):
    """The shift-operator matrices (exp(C), exp(-C))."""
    C = adjoint_matrix(g)
    return (
        matrix_series(series_coeffs("exp", order), C),
        matrix_series(series_coeffs("exp_neg", order), C),
    )


# -- verification suites -----------------------------------------------------


def _closure_residual(g: LieAlgebra, xhat, constants=None):
    """[xhat_mu, xhat_nu] - sum_al C_{mu nu al} xhat_al for mu < nu."""
    c = constants if constants is not None else g.c
    for mu in range(g.n):
        for nu in range(mu + 1, g.n):
            res = xhat[mu].commutator(xhat[nu])
            for al in range(g.n):
                if c[mu][nu][al]:
                    res = res - xhat[al].scale(c[mu][nu][al])
            yield mu, nu, res


def _first_witness(op: WeylOp, order):
    for (a, b), coeff in op.sorted_terms():
        if mi_degree(b) <= order:
            return {"x": list(a), "d": list(b), "coeff": str(coeff)}
    return None


def _check(identity, order, ok, witness=None):
    out = {"identity": identity, "order_checked": order, "pass": bool(ok)}
    if witness is not None:
        out["witness"] = witness
    return out


def verify_realization(g: LieAlgebra, phi: OpMatrix, order) -> dict:
    """Check that xhat_mu = sum_al x_al phi[mu][al] closes the bracket.

    The check is a coefficientwise statement through the guaranteed order
    (one less than the coefficient order, by the truncation rule).
    """
    real = realization_from_phi(g, phi)
    guaranteed = min(real.guaranteed_order, order - 1 if order is not INF else INF)
    checks = []
    ok_all = True
    for mu, nu, res in _closure_residual(g, real.xhat):
        res = res.truncate(guaranteed)
        ok = res.is_zero()
        ok_all = ok_all and ok
        if not ok:
            checks.append(
                _check(
                    f"closure[{mu + 1},{nu + 1}]",
                    guaranteed,
                    False,
                    _first_witness(res, guaranteed),
                )
            )
    checks.insert(0, _check("closure", guaranteed, ok_all))
    return {"pass": ok_all, "order_checked": guaranteed, "checks": checks}


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
    ok_all = True
    for trial in range(trials):
        ks = [random_rational(rng) for _ in range(n)]
        op = WeylOp.zero(n, valid_order=order)
        lin = Polynomial.zero(n)
        for mu in range(n):
            op = op + real.xhat[mu].scale(ks[mu])
            lin = lin + Polynomial.variable(n, mu).scale(ks[mu])
        acted = Polynomial.one(n)
        expected = Polynomial.one(n)
        ok = True
        for m in range(1, m_max + 1):
            acted = op.apply(acted)
            expected = expected * lin
            if acted != expected:
                ok = False
                break
        ok_all = ok_all and ok
        checks.append(
            _check(
                f"symmetrization[trial={trial},k={','.join(map(str, ks))}]",
                m_max,
                ok,
            )
        )
    return {"pass": ok_all, "order_checked": m_max, "checks": checks}


def verify_shift_relations(g: LieAlgebra, order) -> dict:
    """Operator-level relations of the extended algebra for (xhat, That^{+-1})."""
    n = g.n
    real = weyl_realization(g, order)
    T, Tinv = t_realization(g, order)
    checks = []

    # [That_{mu nu}, That_{al be}] = 0: entries are x-free series, which
    # commute exactly; checked on a representative pair
    comm = T[0, 0].commutator(T[n - 1, n - 1]).truncate(order)
    checks.append(_check("T-commutativity", order, comm.is_zero()))

    # [That_{mu nu}, xhat_lam] = sum_be C_{mu lam be} That_{be nu}
    ok = True
    witness = None
    for mu in range(n):
        for nu in range(n):
            for lam in range(n):
                res = T[mu, nu].commutator(real.xhat[lam])
                for be in range(n):
                    c = g.c[mu][lam][be]
                    if c:
                        res = res - T[be, nu].scale(c)
                res = res.truncate(order - 1)
                if not res.is_zero():
                    ok = False
                    witness = witness or {
                        "indices": [mu + 1, nu + 1, lam + 1],
                        **_first_witness(res, order - 1),
                    }
    checks.append(_check("T-x-commutator", order - 1, ok, witness))

    # [Tinv_{mu nu}, xhat_lam] = sum_al C_{lam al nu} Tinv_{mu al}
    ok = True
    witness = None
    for mu in range(n):
        for nu in range(n):
            for lam in range(n):
                res = Tinv[mu, nu].commutator(real.xhat[lam])
                for al in range(n):
                    c = g.c[lam][al][nu]
                    if c:
                        res = res - Tinv[mu, al].scale(c)
                res = res.truncate(order - 1)
                if not res.is_zero():
                    ok = False
                    witness = witness or {
                        "indices": [mu + 1, nu + 1, lam + 1],
                        **_first_witness(res, order - 1),
                    }
    checks.append(_check("Tinv-x-commutator", order - 1, ok, witness))

    # sum_al T_{mu al} Tinv_{al nu} = delta_{mu nu}, both orders
    ident = OpMatrix.identity(n)
    ok = (T * Tinv).agrees_through(ident, order) and (Tinv * T).agrees_through(
        ident, order
    )
    checks.append(_check("T-Tinv-inverse", order, ok))

    # normalization: That_{mu nu} |> 1 = delta_{mu nu}
    one = Polynomial.one(n)
    ok = all(
        T[mu, nu].apply(one)
        == (Polynomial.one(n) if mu == nu else Polynomial.zero(n))
        for mu in range(n)
        for nu in range(n)
    )
    checks.append(_check("T-normalization", order, ok))

    ok_all = all(c["pass"] for c in checks)
    return {"pass": ok_all, "order_checked": order - 1, "checks": checks}


def verify_appendix(g: LieAlgebra, order, m_max) -> dict:
    """Exponential-matrix identities underpinning the dual realization."""
    n = g.n
    C = adjoint_matrix(g)
    powers = [OpMatrix.identity(n)]
    for _ in range(max(m_max, 1)):
        powers.append(powers[-1] * C)
    checks = []

    # identity relating C^m to the structure constants (power m)
    ok = True
    witness = None
    for m in range(1, m_max + 1):
        for mu in range(n):
            for lam in range(n):
                for nu in range(n):
                    lhs = WeylOp.zero(n)
                    for al in range(n):
                        c = g.c[al][lam][nu]
                        if c:
                            lhs = lhs + powers[m][mu, al].scale(c)
                    rhs = WeylOp.zero(n)
                    for al in range(n):
                        for be in range(n):
                            c = g.c[mu][al][be]
                            if not c:
                                continue
                            inner = WeylOp.zero(n)
                            for k in range(m + 1):
                                term = powers[k][lam, al] * powers[m - k][be, nu]
                                inner = inner + term.scale(
                                    Scalar((-1) ** k * comb(m, k))
                                )
                            rhs = rhs + inner.scale(c)
                    res = lhs - rhs
                    if not res.is_zero():
                        ok = False
                        witness = witness or {
                            "m": m,
                            "indices": [mu + 1, lam + 1, nu + 1],
                            **_first_witness(res, INF),
                        }
    checks.append(_check("power-contraction", m_max, ok, witness))

    # formal derivative of C^m
    ok = True
    witness = None
    for m in range(1, m_max + 1):
        for lam in range(n):
            for mu in range(n):
                for nu in range(n):
                    lhs = powers[m][mu, nu].deriv_d(lam)
                    rhs = WeylOp.zero(n)
                    for al in range(n):
                        for be in range(n):
                            c = g.c[mu][al][be]
                            if not c:
                                continue
                            inner = WeylOp.zero(n)
                            for k in range(1, m + 1):
                                term = powers[k - 1][lam, al] * powers[m - k][be, nu]
                                inner = inner + term.scale(
                                    Scalar((-1) ** (k - 1) * comb(m, k))
                                )
                            rhs = rhs + inner.scale(c)
                    res = lhs - rhs
                    if not res.is_zero():
                        ok = False
                        witness = witness or {
                            "m": m,
                            "indices": [lam + 1, mu + 1, nu + 1],
                            **_first_witness(res, INF),
                        }
    checks.append(_check("power-derivative", m_max, ok, witness))

    # derivative of the matrix exponential
    T_hi = matrix_series(series_coeffs("exp", order + 1), C)
    T = matrix_series(series_coeffs("exp", order), C)
    F = matrix_series(series_coeffs("dexp_neg", order), C)
    ok = True
    witness = None
    for lam in range(n):
        for mu in range(n):
            for nu in range(n):
                lhs = T_hi[mu, nu].deriv_d(lam).truncate(order)
                rhs = WeylOp.zero(n, valid_order=order)
                for al in range(n):
                    for be in range(n):
                        c = g.c[mu][al][be]
                        if c:
                            rhs = rhs + (F[lam, al] * T[be, nu]).scale(c)
                res = (lhs - rhs).truncate(order)
                if not res.is_zero():
                    ok = False
                    witness = witness or {
                        "indices": [lam + 1, mu + 1, nu + 1],
                        **_first_witness(res, order),
                    }
    checks.append(_check("exp-derivative", order, ok, witness))

    # triple contraction equals the negated structure constants
    Tinv = matrix_series(series_coeffs("exp_neg", order), C)
    ok = True
    witness = None
    for mu in range(n):
        for nu in range(n):
            for kap in range(n):
                acc = WeylOp.zero(n, valid_order=order)
                for al in range(n):
                    for be in range(n):
                        for rho in range(n):
                            c = g.c[be][rho][al]
                            if c:
                                acc = acc + (
                                    T[al, kap] * Tinv[mu, rho] * Tinv[nu, be]
                                ).scale(c)
                res = (acc + WeylOp.constant(n, g.c[mu][nu][kap])).truncate(order)
                if not res.is_zero():
                    ok = False
                    witness = witness or {
                        "indices": [mu + 1, nu + 1, kap + 1],
                        **_first_witness(res, order),
                    }
    checks.append(_check("triple-contraction", order, ok, witness))

    ok_all = all(c["pass"] for c in checks)
    return {"pass": ok_all, "order_checked": order, "checks": checks}
