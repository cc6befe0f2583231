"""Realizations of Lie algebras inside the truncated Weyl algebra.

Builds the adjoint operator matrix, the table of its series (`series_matrix`),
the Weyl-symmetric realization, its left-right dual, the shift-operator
matrices exp(+-C), and the verification suites (commutator closure,
symmetrization, the exponential-matrix identities).

Index convention: realizations are handed around as the coefficient matrix
P with xhat_mu = sum_al x_al * P[mu][al]; the Weyl-symmetric choice is
P = psi(C).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product

from .lie import LieAlgebra, asymmetric_triples
from .poly import Polynomial, linear_form
from .scalars import MINUS_ONE, ONE, Q, Scalar, numerators
from .series import series_coeffs
from .weyl import INF, InsufficientOrder, OpMatrix, WeylOp, matrix_series, sum_of_products

__all__ = [
    "Realization",
    "adjoint_matrix",
    "series_matrix",
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
        return self.order - 1


def adjoint_matrix(g: LieAlgebra) -> OpMatrix:
    """The operator matrix C_{mu nu} = sum_al C_{mu al nu} d_al, built once per
    algebra and kept in its cache, so every series in C reads one power chain."""
    memo = g.cache("adjoint_matrix")
    if "C" not in memo:
        memo["C"] = OpMatrix(g.n, [[WeylOp._linear(g.n, [r[nu] for r in c], g.n)
                                    for nu in range(g.n)] for c in g.c])
    return memo["C"]


def series_matrix(g: LieAlgebra, kind: str, order: int) -> OpMatrix:
    """The series `kind` of C through `order` (`series.series_coeffs`), formed
    once per algebra and kept beside C, keyed by (kind, order).  Every suite
    reads psi(C), psi_tilde(C) and exp(+-C) here; a kept matrix is never
    changed in place.  The appendix's exp(C) through order + 1 and dexp_neg(C)
    are formed apart, since no other suite reads them."""
    memo = g.cache("adjoint_matrix")
    key = (kind, order)
    if key not in memo:
        memo[key] = matrix_series(series_coeffs(kind, order), adjoint_matrix(g))
    return memo[key]


def _contract_x(row, valid_order) -> WeylOp:
    """sum_al x_al * row[al] for x-free row[al], valid through at most
    valid_order: each term d^b of row[al] becomes x_al d^b (`_raise`), and no two meet."""
    vo = min([valid_order, *(op.valid_order for op in row)])
    return row[0]._like(linear_form(
        (1, 0, 1, op._raise(al, vo).form) for al, op in enumerate(row)
    ), vo)


def _bracket_items(F: WeylOp, row, c=ONE):
    """The `sum_of_products` items of c [F, sum_al x_al row[al]]."""
    return ((F.deriv_d(al), op, c) for al, op in enumerate(row))


def x_free_bracket(F: WeylOp, row) -> WeylOp:
    """[F, sum_al x_al row[al]] = sum_al (d_al F) row[al] for x-free F and row."""
    return sum_of_products(_bracket_items(F, row))


def x_linear_bracket(P: OpMatrix, mu: int, Q: OpMatrix, nu: int) -> WeylOp:
    """[xhat_mu, yhat_nu] for xhat = sum_al x_al P[., al], yhat likewise from Q.

    By [x_al A, x_be B] = x_al (d_be A) B - x_be (d_al B) A it is sum_ga x_ga
    ([P[mu, ga], yhat_nu] - [Q[nu, ga], xhat_mu]): derivatives and products of
    x-free series only, valid through one less than the lower order of P, Q.
    """
    p_row, q_row = P.entries[mu], Q.entries[nu]
    R = [
        sum_of_products([*_bracket_items(p, q_row), *_bracket_items(q, p_row, MINUS_ONE)])
        for p, q in zip(p_row, q_row)
    ]
    return _contract_x(R, min(P.valid_order(), Q.valid_order()) - 1)


def realization_from_phi(g: LieAlgebra, phi: OpMatrix, kind="custom") -> Realization:
    if any(op.xdeg() for row in phi.entries for op in row):
        raise ValueError("realization coefficients must be x-free")
    vo = phi.valid_order()
    return Realization(g, [_contract_x(row, vo) for row in phi.entries], phi, kind, vo)


def weyl_realization(g: LieAlgebra, order: int) -> Realization:
    """The Weyl-symmetric realization xhat_mu = sum_al x_al psi(C)_{mu al}."""
    return realization_from_phi(g, series_matrix(g, "psi", order), "weyl_symmetric")


def dual_realization(g: LieAlgebra, order: int) -> Realization:
    """The dual realization yhat_mu = sum_al x_al psi_tilde(C)_{mu al}."""
    return realization_from_phi(g, series_matrix(g, "psi_tilde", order), "dual_weyl_symmetric")


def t_realization(g: LieAlgebra, order: int):
    """The shift-operator matrices (exp(C), exp(-C))."""
    return series_matrix(g, "exp", order), series_matrix(g, "exp_neg", order)


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
    residual's first JSON term through `cut`, read only from a nonzero
    residual.  `cut` defaults to `order`.
    """
    cut = order if cut is None else cut
    for label, res in residuals:
        if res.form[1] and (kept := res.truncate(cut).to_json()):
            return check(identity, order, False, {**label, **kept[0]})
    return check(identity, order, True)


def _over_cube(n, residual, **label):
    """(label with 1-based "indices", residual(i, j, k)) for every index triple."""
    for ijk in product(range(n), repeat=3):
        yield {**label, "indices": [i + 1 for i in ijk]}, residual(*ijk)


def closure_residual(g: LieAlgebra, real: Realization):
    """[xhat_mu, xhat_nu] - sum_al C_{mu nu al} xhat_al for mu < nu."""
    one = WeylOp.one(g.n)
    for mu, nu in combinations(range(g.n), 2):
        yield mu, nu, sum_of_products([
            (x_linear_bracket(real.phi, mu, real.phi, nu), one),
            *((xhat, one, -c) for c, xhat in zip(g.c[mu][nu], real.xhat) if c),
        ])


def verify_realization(g: LieAlgebra, phi: OpMatrix, order) -> dict:
    """Check that xhat_mu = sum_al x_al phi[mu][al] closes the bracket.

    The check is a coefficientwise statement through the guaranteed order
    (one less than the coefficient order, by the truncation rule).  Every
    failing pair is reported after the overall verdict.
    """
    real = realization_from_phi(g, phi)
    guaranteed = min(real.guaranteed_order, order - 1)
    pairs = [
        residual_check(f"closure[{mu + 1},{nu + 1}]", guaranteed, [({}, res)])
        for mu, nu, res in closure_residual(g, real)
    ]
    failed = [c for c in pairs if not c["pass"]]
    return suite(guaranteed, [check("closure", guaranteed, not failed), *failed])


def random_rational(rng) -> Scalar:
    num = rng.randint(-9, 9)
    den = rng.randint(1, 9)
    return Scalar(Q(num, den))


def random_polynomial(rng, n: int, max_degree: int, terms: int = 4) -> Polynomial:
    """The sum of `terms` random monomials with random rational coefficients,
    formed in one pass: a repeated monomial adds up, and may cancel."""
    out = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        k, c = tuple(exps), random_rational(rng)
        out[k] = out[k] + c if k in out else c
    return Polynomial(n, out)


def verify_symmetrization(g: LieAlgebra, order, m_max, trials, rng) -> dict:
    """(sum k_mu xhat_mu)^m |> 1 == (sum k_mu x_mu)^m for random rational k.

    The m-th power acts on polynomials of degree below m, so psi(C) is read
    through m_max only."""
    if m_max > order:
        raise InsufficientOrder(m_max, order)
    real = weyl_realization(g, m_max)
    n, one = g.n, WeylOp.one(g.n)
    checks = []
    for trial in range(trials):
        ks = [random_rational(rng) for _ in range(n)]
        op = sum_of_products([(xhat, one, k) for xhat, k in zip(real.xhat, ks)], m_max)
        lin = Polynomial._linear(n, ks, 0)
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
    phi = series_matrix(g, "psi", order)
    T, Tinv = t_realization(g, order)

    # [That_{mu nu}, That_{al be}] = 0 because every entry of T and Tinv is
    # an x-free series in d, and those commute exactly
    x_free = all(op.xdeg() == 0 for M in (T, Tinv) for row in M.entries for op in row)
    checks = [check("T-commutativity", order, x_free)]

    one = WeylOp.one(n)
    # [That_{mu nu}, xhat_lam] = sum_be C_{mu lam be} That_{be nu}
    def t_x(mu, nu, lam):
        return sum_of_products([
            *_bracket_items(T[mu, nu], phi.entries[lam]),
            *((T[be, nu], one, -c) for be in range(n) if (c := g.c[mu][lam][be])),
        ])

    # [Tinv_{mu nu}, xhat_lam] = sum_al C_{lam al nu} Tinv_{mu al}
    def tinv_x(mu, nu, lam):
        return sum_of_products([
            *_bracket_items(Tinv[mu, nu], phi.entries[lam]),
            *((Tinv[mu, al], one, -c) for al in range(n) if (c := g.c[lam][al][nu])),
        ])

    checks.append(residual_check("T-x-commutator", order - 1, _over_cube(n, t_x)))
    checks.append(residual_check("Tinv-x-commutator", order - 1, _over_cube(n, tinv_x)))

    # sum_al T_{mu al} Tinv_{al nu} = delta_{mu nu}, both orders
    ident = OpMatrix.identity(n)
    ok = all(A * B == ident for A, B in ((T, Tinv), (Tinv, T)))
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
    """Exponential-matrix identities underpinning the dual realization.

    The table must be antisymmetric (ValueError otherwise): the triple
    contraction is then antisymmetric in (mu, nu) and is formed for mu < nu.
    """
    for mu, nu, lam in asymmetric_triples(g):
        raise ValueError(f"the appendix needs an antisymmetric table: C[{mu + 1}][{nu + 1}]"
                         f"[{lam + 1}] != -C[{nu + 1}][{mu + 1}][{lam + 1}]")
    n = g.n
    C = adjoint_matrix(g)
    # the exact powers C^m (of degree m), read from the chain every series in C shares
    powers = C.powers(m_max)

    # D[m][mu] = sum_k (-1)^k binom(m, k) C^k K_mu C^(m-k) and
    # E[m][mu] = sum_{k>=1} (-1)^(k-1) binom(m, k) C^(k-1) K_mu C^(m-k), where
    # (K_mu)_{al be} = C_{mu al be}; by Pascal's rule D_m = D_{m-1} C - C D_{m-1}
    # and E_m = E_{m-1} C + D_{m-1}, from D_0 = K_mu and E_0 = 0, one sum per entry
    D = [[OpMatrix(n, [[WeylOp.constant(n, c) for c in r] for r in K]) for K in g.c]]
    E = [[OpMatrix.zero(n)] * n]
    zero, one, cols = WeylOp.zero(n), WeylOp.one(n), list(zip(*C.entries))

    def difference(lhs, rhs):
        """lhs - rhs, formed only when the two sides differ."""
        return zero if lhs == rhs else lhs - rhs

    for _ in range(m_max):
        E.append([OpMatrix(n, [[
            sum_of_products([*zip(row, col), (d[a, b], one)]) for b, col in enumerate(cols)
        ] for a, row in enumerate(e.entries)]) for e, d in zip(E[-1], D[-1])])
        D.append([OpMatrix(n, [[
            sum_of_products([*zip(row, col), *((C[a, k], d[k, b], MINUS_ONE) for k in range(n))])
            for b, col in enumerate(cols)
        ] for a, row in enumerate(d.entries)]) for d in D[-1]])

    # identity relating C^m to the structure constants (power m): its left side
    # sum_al C_{al lam nu} (C^m)_{mu al} is one linear form of exact powers
    def power_contraction(m, mu, lam, nu):
        terms = [(powers[m][mu, al], c) for al in range(n) if (c := g.c[al][lam][nu])]
        dc, us, vs = numerators([c for _, c in terms])
        lhs = one._like(linear_form((u, v, dc, P.form) for (P, _), u, v in zip(terms, us, vs)))
        return difference(lhs, D[m][mu][lam, nu])

    # formal derivative of C^m
    def power_derivative(m, lam, mu, nu):
        return difference(powers[m][mu, nu].deriv_d(lam), E[m][mu][lam, nu])

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

    # derivative of the matrix exponential; T and Tinv are the shift suite's, and
    # exp(C) through order + 1 and dexp_neg(C), read only here, stay out of the table
    T_hi = matrix_series(series_coeffs("exp", order + 1), C)
    T, Tinv = t_realization(g, order)
    F = matrix_series(series_coeffs("dexp_neg", order), C)

    def exp_derivative(lam, mu, nu):
        return sum_of_products([
            (T_hi[mu, nu].deriv_d(lam), one),
            *((F[lam, al], T[be, nu], -c) for al, be in product(range(n), repeat=2)
              if (c := g.c[mu][al][be])),
        ], order)

    checks.append(
        residual_check("exp-derivative", order, _over_cube(n, exp_derivative))
    )

    # triple contraction equals the negated structure constants; its inner
    # sum M[mu, nu, al] = sum_{be rho} C_{be rho al} Tinv_{mu rho} Tinv_{nu be}
    # does not depend on kap; the zero item keeps an empty sum valid through order.
    # The Tinv entries commute, so with C antisymmetric M and the residual are
    # antisymmetric in (mu, nu) (zero for mu = nu), and the first nonzero
    # residual in index order has mu < nu: only those are formed.
    upper = [ijk for ijk in product(range(n), repeat=3) if ijk[0] < ijk[1]]
    M = {
        (mu, nu, al): sum_of_products([(zero, one), *(
            (Tinv[mu, rho], Tinv[nu, be], c) for be, rho in product(range(n), repeat=2)
            if (c := g.c[be][rho][al])
        )], order)
        for mu, nu, al in upper
    }

    def triple_contraction(mu, nu, kap):
        c = WeylOp.constant(n, g.c[mu][nu][kap])
        return sum_of_products([*((T[al, kap], M[mu, nu, al]) for al in range(n)), (c, one)])

    residuals = (({"indices": [i + 1 for i in ijk]}, triple_contraction(*ijk)) for ijk in upper)
    checks.append(residual_check("triple-contraction", order, residuals))
    return suite(order, checks)
