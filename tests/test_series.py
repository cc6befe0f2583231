import pytest

from lieweyl import BiTruncSeries, Scalar, TruncSeries, bernoulli, series_coeffs


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


def test_bernoulli_plus_convention():
    assert str(bernoulli(1, "plus")) == "1/2"
    for k in [0, 2, 4, 6]:
        assert bernoulli(k, "plus") == bernoulli(k)


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


def test_shift_down():
    s = TruncSeries([Scalar(0), Scalar(2), Scalar(3)])
    assert s.shift_down() == TruncSeries([Scalar(2), Scalar(3)])
    with pytest.raises(ValueError):
        TruncSeries([Scalar(1)]).shift_down()


def test_bi_series_substitution():
    order = 6
    psi = series_coeffs("psi", order)
    # psi(u+v) restricted to v=0 must reproduce psi(u)
    uv = BiTruncSeries.from_univariate(psi, "u+v", order)
    u = BiTruncSeries.from_univariate(psi, "u", order)
    for (i, j), c in uv.terms.items():
        if j == 0:
            assert c == u.terms.get((i, 0), Scalar(0))


def test_bi_series_ratio():
    order = 6
    psi = series_coeffs("psi", order)
    uv = BiTruncSeries.from_univariate(psi, "u+v", order)
    u = BiTruncSeries.from_univariate(psi, "u", order)
    ratio = uv / u
    assert ratio * u == uv


@pytest.mark.parametrize("order", [0, 1, 6])
def test_dexp_kinds(order):
    # (e^t - 1)/t and (1 - e^{-t})/t, from the exponential series one order up
    one = TruncSeries([Scalar(1)] + [Scalar(0)] * (order + 1))
    dexp = (series_coeffs("exp", order + 1) - one).shift_down()
    dexp_neg = (one - series_coeffs("exp_neg", order + 1)).shift_down()
    assert series_coeffs("dexp", order) == dexp
    assert series_coeffs("dexp_neg", order) == dexp_neg
