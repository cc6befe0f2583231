import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from normal_order import commutator

from lieweyl import (
    I,
    InsufficientOrder,
    LieAlgebra,
    OpMatrix,
    Polynomial,
    Scalar,
    WeylOp,
    adjoint_matrix,
    dual_realization,
    g2_algebra,
    kappa_algebra,
    load_algebra,
    make_context,
    realization_from_phi,
    series_matrix,
    su2_algebra,
    sum_of_products,
    t_realization,
    verify_appendix,
    verify_duality,
    verify_kappa,
    verify_realization,
    verify_shift_relations,
    verify_symmetrization,
    weyl_realization,
)
from lieweyl import realization, weyl
from lieweyl.cli import main
from lieweyl.realization import x_free_bracket, x_linear_bracket
from lieweyl.weyl import INF
from conftest import standard_algebras


def test_g2_low_order_series():
    g = g2_algebra()
    real = weyl_realization(g, 2)
    x1, x2 = (WeylOp.x(2, mu) for mu in range(2))
    d1, d2 = (WeylOp.d(2, mu) for mu in range(2))
    half = Scalar(1) / 2
    twelfth = Scalar(1) / 12
    expect0 = x1 + (x2 * d2).scale(half) - (x2 * d1 * d2).scale(twelfth)
    expect1 = x2 - (x2 * d1).scale(half) + (x2 * d1 * d1).scale(twelfth)
    assert real.xhat[0].truncate(2) == expect0.truncate(2)
    assert real.xhat[1].truncate(2) == expect1.truncate(2)


def test_adjoint_matrix_g2():
    g = g2_algebra()
    C = adjoint_matrix(g)
    d1, d2 = (WeylOp.d(2, mu) for mu in range(2))
    assert C[0, 0].is_zero()
    assert C[0, 1] == d2
    assert C[1, 0].is_zero()
    assert C[1, 1] == -d1


def test_closure_all_algebras():
    for g in standard_algebras():
        real = weyl_realization(g, 4)
        rep = verify_realization(g, real.phi, 4)
        assert rep["pass"], (g.name, rep)


def test_dual_closure_flipped_sign():
    # the dual realization closes the bracket of the dual algebra
    from lieweyl import dual_algebra

    for g in standard_algebras():
        real = dual_realization(g, 4)
        rep = verify_realization(dual_algebra(g), real.phi, 4)
        assert rep["pass"], (g.name, rep)


def test_corrupted_phi_fails_with_witness():
    g = g2_algebra()
    phi = weyl_realization(g, 4).phi
    bad = OpMatrix(2, phi.entries)
    bad.entries[0][0] = phi[0, 0] + WeylOp.d(2, 0).scale(Scalar(1) / 3)
    rep = verify_realization(g, bad, 4)
    assert not rep["pass"]
    failing = [c for c in rep["checks"] if not c["pass"] and "witness" in c]
    assert failing and failing[0]["witness"] is not None


def test_symmetrization():
    rng = random.Random(5)
    for g in standard_algebras():
        rep = verify_symmetrization(g, 5, 4, 3, rng)
        assert rep["pass"], (g.name, rep)


def test_symmetrization_fails_on_a_realization_that_is_not_symmetric(monkeypatch):
    # phi = 2 psi(C) gives xhat_mu |> 1 = 2 x_mu; every phi = f(C) with f(0) = 1,
    # exp(C) and psi_tilde(C) among them, passes this check
    weyl = realization.weyl_realization

    def doubled(g, order):
        phi = weyl(g, order).phi
        return realization_from_phi(g, OpMatrix(g.n, [[op.scale(2) for op in row]
                                                      for row in phi.entries]))

    monkeypatch.setattr(realization, "weyl_realization", doubled)
    rep = verify_symmetrization(su2_algebra(), 5, 4, 3, random.Random(5))
    assert not rep["pass"]
    assert rep["checks"] and not any(c["pass"] for c in rep["checks"])


def test_symmetrization_order_guard():
    with pytest.raises(InsufficientOrder):
        verify_symmetrization(g2_algebra(), 3, 5, 1, random.Random(0))


def test_shift_relations():
    for g in standard_algebras():
        rep = verify_shift_relations(g, 5)
        assert rep["pass"], (g.name, rep)


def test_t_matrices_inverse():
    for g in standard_algebras():
        T, Tinv = t_realization(g, 5)
        assert (T * Tinv).truncate(5) == OpMatrix.identity(g.n).truncate(5)
        assert (Tinv * T).truncate(5) == OpMatrix.identity(g.n).truncate(5)


def test_appendix_identities():
    for g in standard_algebras():
        rep = verify_appendix(g, 4, 4)
        assert rep["pass"], (g.name, rep)


def test_appendix_power_identities_to_m6():
    for g in (su2_algebra(2), kappa_algebra([I, Scalar(1), Scalar(1) / 2])):
        rep = verify_appendix(g, 6, 6)
        assert rep["pass"], (g.name, rep)


def test_appendix_forms_each_truncated_product_once(monkeypatch):
    # the triple contraction's kap-free inner sum is formed once per (mu, nu, al),
    # not once per kap, and both it and the residual only for mu < nu, as both
    # are antisymmetric in (mu, nu).  For su2 (n = 3, two nonzero C_{mu al be}
    # per mu and per al): 27 (lam, mu, nu) x 2 = 54 exp-derivative products,
    # 3 pairs mu < nu x 3 al x 2 = 18 inner ones, and 3 pairs x 3 kap x 3 al = 27
    # outer ones
    pairs = []
    kernel = weyl.sum_of_products

    def counting(terms, valid_order=INF):
        terms = list(terms)
        pairs.extend(
            1
            for a, b, *_ in terms
            if a.terms and b.terms and a.valid_order < INF and b.valid_order < INF
        )
        return kernel(terms, valid_order)

    for module in (weyl, realization):
        monkeypatch.setattr(module, "sum_of_products", counting)
    assert verify_appendix(su2_algebra(), 4, 4)["pass"]
    assert len(pairs) == 54 + 18 + 27


def _table(n, entries):
    return tuple(
        tuple(tuple(Scalar(entries.get((mu, nu, lam), 0)) for lam in range(n)) for nu in range(n))
        for mu in range(n)
    )


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 1, 1): 1, (1, 0, 1): 1},  # [X1, X2] = [X2, X1] = X2
        {(0, 1, 1): 1, (1, 0, 1): -1, (0, 0, 1): Fraction(1, 2)},  # [X1, X1] = X2/2
    ],
    ids=["symmetric-pair", "diagonal"],
)
def test_appendix_rejects_a_table_that_is_not_antisymmetric(entries):
    # the triple contraction is formed for mu < nu only, which holds for an
    # antisymmetric table alone
    g = LieAlgebra(2, _table(2, entries))
    with pytest.raises(ValueError, match="antisymmetric"):
        verify_appendix(g, 4, 4)


@pytest.mark.parametrize("cut", [1, 2, 3, INF])
def test_residual_witness_is_the_first_term_through_the_cut(cut):
    res = WeylOp(2, {((1, 0), (0, 3)): Scalar(1), ((0, 1), (1, 1)): Scalar(4),
                     ((1, 0), (1, 1)): Scalar(3), ((0, 0), (0, 2)): Scalar(2)})
    rep = realization.residual_check("r", 5, [({"m": 1}, res)], cut=cut)
    kept = res.truncate(cut).sorted_terms()
    assert rep["pass"] == (not kept)
    if kept:
        (a, b), coeff = kept[0]
        assert rep["witness"] == {"m": 1, "x": list(a), "d": list(b), "coeff": str(coeff)}


def test_appendix_run_forms_the_power_chain_once(monkeypatch):
    # the CLI's appendix suite: every series in C, and the exact powers C^m,
    # read one uncut chain of the algebra's C, as far as C^(order + 1) for exp(C)
    g, order = su2_algebra(), 6
    C = adjoint_matrix(g)
    links = []
    mul = OpMatrix.__mul__

    def counted(a, other):
        links.append(other)
        return mul(a, other)

    monkeypatch.setattr(OpMatrix, "__mul__", counted)
    assert verify_appendix(g, order, 5)["pass"] and verify_shift_relations(g, order)["pass"]
    assert adjoint_matrix(g) is C
    # the links C^2..C^(order + 1), each the one before times the chain's C,
    # then the shift suite's T Tinv and Tinv T
    chain = C.powers(order + 1)
    assert [o is chain[1] for o in links] == [True] * order + [False] * 2
    assert chain[1] is not C and chain[1] == C


def test_cli_runs_form_each_series_of_c_once(capsys, monkeypatch):
    # every suite reads one table of C's series per algebra: the appendix run
    # forms exp(C) through 7, dexp_neg(C), exp(C) and exp(-C) through 6 and
    # psi(C) once each, and the symmetrization run reads psi(C) through
    # m_max = 5 only, whose t^5 coefficient is 0, so C's chain stops at C^4
    series = []
    kernel = realization.matrix_series

    def counting(f, M):
        series.append(f)
        return kernel(f, M)

    monkeypatch.setattr(realization, "matrix_series", counting)
    assert main(["verify", "su2", "--suite", "appendix", "--order", "6"]) == 0
    assert len(series) == 5
    links = []
    mul = OpMatrix.__mul__

    def counted(a, other):
        links.append(other)
        return mul(a, other)

    monkeypatch.setattr(OpMatrix, "__mul__", counted)
    series.clear()
    assert main(["verify", "su2", "--suite", "symmetrization", "--order", "8"]) == 0
    assert len(series) == 1 and series[0].order == 5
    assert len(links) == 3
    capsys.readouterr()


def test_a_corrupt_shared_tinv_fails_both_suites_that_read_it(monkeypatch):
    # the appendix and the shift relations read the one exp(-C) of the table,
    # so a wrong entry there is seen by both
    g, order = su2_algebra(), 6
    Tinv = series_matrix(g, "exp_neg", order)
    wrong = sum_of_products([(Tinv[0, 1], WeylOp.one(3)), (WeylOp.d(3, 0), WeylOp.one(3))])
    entries = [list(row) for row in Tinv.entries]
    entries[0][1] = wrong
    monkeypatch.setattr(Tinv, "entries", entries)
    appendix, shifts = verify_appendix(g, order, 5), verify_shift_relations(g, order)
    verdicts = {c["identity"]: c["pass"] for rep in (appendix, shifts) for c in rep["checks"]}
    assert not verdicts["triple-contraction"] and not verdicts["T-Tinv-inverse"]
    assert t_realization(g, order)[1] is Tinv


@pytest.mark.parametrize("name", ["su2", "kappa"])
def test_suites_form_no_pairwise_operator_sums(name, monkeypatch):
    # every operator sum of the suites lists its terms in one sum_of_products
    # call; A + B and A - B are that call's two-item case, and no suite uses it
    calls = Counter()
    for op in ("__add__", "__sub__"):
        def counting(*args, _op=op, _fn=getattr(WeylOp, op)):
            calls[_op] += 1
            return _fn(*args)

        monkeypatch.setattr(WeylOp, op, counting)
    g = su2_algebra() if name == "su2" else kappa_algebra([I, Scalar(1)])
    order, rng = 4, random.Random(0)
    reports = [
        verify_realization(g, weyl_realization(g, order).phi, order),
        verify_symmetrization(g, order, 4, 2, rng),
        verify_shift_relations(g, order),
        verify_appendix(g, order, 4),
        verify_duality(make_context(g, order), 2, rng),
    ]
    if name == "kappa":
        reports.append(verify_kappa(g, order, 2, rng))
    assert all(rep["pass"] for rep in reports)
    assert not calls


def test_realization_from_phi_rejects_x():
    g = g2_algebra()
    phi = OpMatrix(
        2,
        [
            [WeylOp.one(2), WeylOp.x(2, 0)],
            [WeylOp.zero(2), WeylOp.one(2)],
        ],
    )
    with pytest.raises(ValueError):
        realization_from_phi(g, phi)


def test_guaranteed_order():
    real = weyl_realization(g2_algebra(), 6)
    assert real.guaranteed_order == 5
    # an exact phi keeps exact commutators
    exact = realization_from_phi(g2_algebra(), OpMatrix.identity(2))
    assert exact.order == exact.guaranteed_order == INF


@pytest.mark.parametrize(
    "g",
    [
        su2_algebra(),
        g2_algebra(),
        kappa_algebra([I, Scalar(0), Scalar(0)]),
        kappa_algebra([I, Scalar(1), Scalar(1) / 2]),
        load_algebra(Path(__file__).with_name("non_jacobi.json")),
    ],
    ids=["su2", "g2", "kappa(1i,0,0)", "kappa(1i,1,1/2)", "non-jacobi"],
)
def test_brackets_from_derivatives_equal_normal_ordered_ones(g):
    # every commutator the suites check, from the derivation formula, against
    # the normal-ordered product kept in the tests: same terms, same valid order
    order, n = 6, g.n
    real, dual = weyl_realization(g, order), dual_realization(g, order)
    T, Tinv = t_realization(g, order)
    index_pairs = {
        (real, real): combinations(range(n), 2),
        (dual, dual): combinations(range(n), 2),
        (real, dual): product(range(n), repeat=2),
    }
    pairs = [
        (x_linear_bracket(P.phi, mu, Q.phi, nu), commutator(P.xhat[mu], Q.xhat[nu]))
        for (P, Q), indices in index_pairs.items()
        for mu, nu in indices
    ]
    pairs += [
        (x_free_bracket(F, real.phi.entries[lam]), commutator(F, real.xhat[lam]))
        for M in (T, Tinv)
        for F in (op for row in M.entries for op in row)
        for lam in range(n)
    ]
    for ours, oracle in pairs:
        assert ours == oracle
        assert ours.valid_order == oracle.valid_order == order - 1


HEISENBERG = Path(__file__).with_name("heisenberg.json")


def _heisenberg_matrix(sign):
    """I + sign * C as {(mu, nu): {(x, d): Fraction}}, with C_{mu nu} =
    sum_al C_{mu al nu} d_al read from the spec's constants; [X1, X2] = X3
    makes C^2 = 0, so every series in C stops after its linear term."""
    spec = json.loads(HEISENBERG.read_text())
    n, z = spec["n"], (0,) * spec["n"]
    out = {(mu, nu): {} for mu in range(n) for nu in range(n)}
    for mu in range(n):
        out[mu, mu][z, z] = Fraction(1)
    for entry in spec["constants"]:
        mu, nu, lam = (entry[k] - 1 for k in ("mu", "nu", "lambda"))
        c = Fraction(entry["c"])
        # C_{mu al lam} = c and C_{nu al lam} = -c at al = nu and mu
        for row, al, v in ((mu, nu, c), (nu, mu, -c)):
            d = tuple(int(k == al) for k in range(n))
            out[row, lam][z, d] = out[row, lam].get((z, d), 0) + sign * v
    return out


def _as_fractions(M):
    out = {}
    for mu, nu in product(range(M.n), repeat=2):
        terms = M[mu, nu].terms
        assert not any(c.im for c in terms.values())
        out[mu, nu] = {k: c.re for k, c in terms.items()}
    return out


def test_heisenberg_series_stop_at_the_linear_term():
    g = load_algebra(str(HEISENBERG))
    half = Fraction(1, 2)
    phi, phi_dual = weyl_realization(g, 8).phi, dual_realization(g, 8).phi
    assert _as_fractions(phi) == _heisenberg_matrix(half)
    assert _as_fractions(phi_dual) == _heisenberg_matrix(-half)
    T, Tinv = t_realization(g, 8)
    assert _as_fractions(T) == _heisenberg_matrix(1)
    assert _as_fractions(Tinv) == _heisenberg_matrix(-1)
    # the zero entries are the empty form, the unit ones have den 1, and
    # the C/2 ones den 2
    assert phi[0, 1].form == (1, ()) and phi[0, 0].form[0] == 1 and phi[0, 2].form[0] == 2


def _folded_random_polynomial(rng, n, max_degree, terms):
    """random_polynomial's draws summed one monomial at a time with `+`; also
    the keys drawn."""
    out, drawn = Polynomial.zero(n), set()
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        drawn.add(tuple(exps))
        out = out + Polynomial(n, {tuple(exps): realization.random_rational(rng)})
    return out, drawn


def test_random_polynomial_is_the_termwise_sum():
    # the one-pass sum makes the same draws and, where monomials repeat and
    # cancel, the same polynomial as the sum one term at a time
    cancelled = 0
    for seed in range(200):
        for n, max_degree, terms in ((1, 1, 6), (2, 2, 4), (3, 3, 4)):
            rng, oracle = random.Random(seed), random.Random(seed)
            got = realization.random_polynomial(rng, n, max_degree, terms)
            expected, drawn = _folded_random_polynomial(oracle, n, max_degree, terms)
            assert got == expected and rng.random() == oracle.random()
            cancelled += len(drawn) > len(got.form[1])
    assert cancelled
