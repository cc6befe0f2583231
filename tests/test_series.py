from fractions import Fraction

import pytest

from lieweyl import Scalar, TruncSeries, WeylOp, bernoulli, series_coeffs, series_in_op


def test_bernoulli_values():
    expected = {
        0: "1",
        1: "-1/2",
        2: "1/6",
        4: "-1/30",
        6: "1/42",
        8: "-1/30",
        10: "5/66",
        12: "-691/2730",
    }
    for k, v in expected.items():
        assert str(bernoulli(k)) == v


def test_bernoulli_odd_vanish():
    for k in range(3, 16, 2):
        assert not bernoulli(k)


def test_guards():
    with pytest.raises(ValueError, match="non-negative"):
        bernoulli(-1)
    with pytest.raises(ValueError, match="non-negative"):
        series_coeffs("psi", -1)
    with pytest.raises(ValueError, match="unknown series kind 'nosuch'"):
        series_coeffs("nosuch", 3)
    with pytest.raises(ValueError, match="constant term"):
        TruncSeries([])


def test_psi_vs_psi_tilde():
    # psi(t) e^{-t} = psi_tilde(t)
    order = 12
    psi = series_coeffs("psi", order)
    pt = series_coeffs("psi_tilde", order)
    en = series_coeffs("exp_neg", order)
    assert psi * en == pt


def test_psi_defining_relation():
    # psi(t) (1 - e^{-t}) = t
    order = 12
    psi = series_coeffs("psi", order)
    one = TruncSeries([Scalar(1)] + [Scalar(0)] * order)
    en = series_coeffs("exp_neg", order)
    t = TruncSeries([Scalar(0), Scalar(1)] + [Scalar(0)] * (order - 1))
    assert psi * (one - en) == t


def test_psi_tilde_defining_relation():
    # psi_tilde(t) (e^t - 1) = t
    order = 12
    pt = series_coeffs("psi_tilde", order)
    one = TruncSeries([Scalar(1)] + [Scalar(0)] * order)
    ep = series_coeffs("exp", order)
    t = TruncSeries([Scalar(0), Scalar(1)] + [Scalar(0)] * (order - 1))
    assert pt * (ep - one) == t


def test_series_division():
    order = 10
    psi = series_coeffs("psi", order)
    pt = series_coeffs("psi_tilde", order)
    assert (psi * pt) / pt == psi


def _psi_at(order, *units):
    """psi at the sum of the given derivatives, an x-free operator in (u, v)."""
    z = (0, 0)
    var = WeylOp(2, {(z, unit): 1 for unit in units})
    return series_in_op(series_coeffs("psi", order), var)


def test_bi_series_substitution():
    order = 6
    # psi(u+v) restricted to v=0 must reproduce psi(u)
    uv = _psi_at(order, (1, 0), (0, 1))
    u = _psi_at(order, (1, 0))
    for (x, (i, j)), c in uv.terms.items():
        if j == 0:
            assert c == u.terms.get((x, (i, 0)), Scalar(0))


def test_bi_series_ratio():
    order = 6
    uv = _psi_at(order, (1, 0), (0, 1))
    u = _psi_at(order, (1, 0))
    # psi(u+v)/psi(u) with the reciprocal 1/psi(u) = (1 - e^{-u})/u
    ratio = uv * series_in_op(series_coeffs("dexp_neg", order), WeylOp.d(2, 0))
    assert ratio * u == uv


@pytest.mark.parametrize("order", [0, 1, 6])
def test_dexp_kinds(order):
    # (e^t - 1)/t and (1 - e^{-t})/t, from the exponential series one order up
    one = TruncSeries([Scalar(1)] + [Scalar(0)] * (order + 1))
    dexp = (series_coeffs("exp", order + 1) - one).coeffs
    dexp_neg = (one - series_coeffs("exp_neg", order + 1)).coeffs
    assert not dexp[0] and not dexp_neg[0]
    assert series_coeffs("dexp", order) == TruncSeries(dexp[1:])
    assert series_coeffs("dexp_neg", order) == TruncSeries(dexp_neg[1:])


ORACLE_ORDER = 14


@pytest.mark.parametrize(
    "kind,closed_form",
    [
        ("psi", lambda t, exp: t / (1 - exp(-t))),
        ("psi_tilde", lambda t, exp: t / (exp(t) - 1)),
        ("dexp", lambda t, exp: (exp(t) - 1) / t),
        ("dexp_neg", lambda t, exp: (1 - exp(-t)) / t),
    ],
)
def test_series_against_sympy(kind, closed_form):
    # an independent oracle: sympy's Taylor expansion of the closed form
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    taylor = sympy.series(closed_form(t, sympy.exp), t, 0, ORACLE_ORDER + 1).removeO()
    expected = [Scalar.parse(str(taylor.coeff(t, k))) for k in range(ORACLE_ORDER + 1)]
    assert list(series_coeffs(kind, ORACLE_ORDER).coeffs) == expected


def test_bernoulli_against_sympy():
    sympy = pytest.importorskip("sympy")
    for k in range(2 * ORACLE_ORDER):
        # sympy >= 1.12 follows the B_1 = +1/2 convention
        expected = Fraction(str(sympy.bernoulli(k)))
        assert bernoulli(k) == (-expected if k == 1 else expected)
