import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieweyl import (
    AlgebraSpecError,
    I,
    Scalar,
    abelian,
    algebra_to_json,
    custom_algebra,
    dual_algebra,
    g2_algebra,
    kappa_algebra,
    load_algebra,
    rescale,
    su2_algebra,
    validate,
)


def test_builtins_validate():
    for g in [abelian(1), abelian(2), abelian(3), abelian(4), g2_algebra(), su2_algebra()]:
        rep = validate(g)
        assert rep["antisymmetry"] and rep["jacobi"], g.name


rational = st.fractions(max_denominator=9)
gauss = st.builds(lambda a, b: Scalar(a, b), rational, rational)


@given(st.lists(gauss, min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_kappa_always_lie(b):
    rep = validate(kappa_algebra(b))
    assert rep["antisymmetry"] and rep["jacobi"]


def test_g2_is_kappa_special_case():
    assert g2_algebra().c == kappa_algebra([Scalar(1), Scalar(0)]).c


def test_su2_bracket():
    g = su2_algebra()
    # [X1, X2] = X3 and cyclic
    assert g.c[0][1][2] == Scalar(1)
    assert g.c[1][2][0] == Scalar(1)
    assert g.c[2][0][1] == Scalar(1)
    assert g.c[1][0][2] == Scalar(-1)


def test_non_jacobi_witness():
    # [X1,X2]=X3, [X1,X3]=X1, [X2,X3]=0 violates Jacobi:
    # [X1,[X2,X3]] + [X2,[X3,X1]] + [X3,[X1,X2]] = X3 != 0
    g = custom_algebra(
        3,
        {
            (0, 1, 2): Scalar(1),
            (1, 0, 2): Scalar(-1),
            (0, 2, 0): Scalar(1),
            (2, 0, 0): Scalar(-1),
        },
    )
    rep = validate(g)
    assert rep["antisymmetry"]
    assert not rep["jacobi"]
    w = rep["witnesses"][0]
    assert w["kind"] == "jacobi"
    mu, al, be, nu = (k - 1 for k in w["indices"])
    c = g.c
    s = Scalar(0)
    for rho in range(3):
        s = s + (
            c[mu][al][rho] * c[rho][be][nu]
            + c[al][be][rho] * c[rho][mu][nu]
            + c[be][mu][rho] * c[rho][al][nu]
        )
    assert str(s) == w["residual"] and s != Scalar(0)


def test_dual_and_rescale():
    g = g2_algebra()
    d = dual_algebra(g)
    assert d.c[0][1][1] == -g.c[0][1][1]
    h = rescale(g, Scalar(1) / 3)
    assert h.c[0][1][1] == g.c[0][1][1] / 3


def test_json_roundtrip():
    g = kappa_algebra([I, Scalar(1) / 2, Scalar(0)])
    data = algebra_to_json(g)
    g2 = load_algebra(data)
    assert g2.c == g.c and g2.n == g.n


def test_load_algebra_file(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(
        json.dumps(
            {"n": 2, "constants": [{"mu": 1, "nu": 2, "lambda": 2, "c": "1"}]}
        )
    )
    g = load_algebra(str(path))
    assert g.c == g2_algebra().c


def test_load_algebra_rejects():
    with pytest.raises(AlgebraSpecError):
        load_algebra({"n": 2})
    with pytest.raises(AlgebraSpecError):
        load_algebra({"n": 2, "constants": [{"mu": 1, "nu": 2, "lambda": 5, "c": "1"}]})
    with pytest.raises(AlgebraSpecError):
        load_algebra(
            {
                "n": 2,
                "constants": [
                    {"mu": 1, "nu": 2, "lambda": 2, "c": "1"},
                    {"mu": 2, "nu": 1, "lambda": 2, "c": "1"},
                ],
            }
        )


def test_random_kappa_seeded():
    rng = random.Random(0)
    for _ in range(5):
        b = [Scalar(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        rep = validate(kappa_algebra(b))
        assert rep["jacobi"]


def test_algebra_value_semantics():
    g, h = g2_algebra(), kappa_algebra([Scalar(1), Scalar(0)], name="other")
    g.cache("pbw")[(0, 1)] = "memo"
    assert g == h and hash(g) == hash(h)  # name and memo caches do not count
    assert g != su2_algebra()
    with pytest.raises(AttributeError):
        g.n = 3
    with pytest.raises(AttributeError):
        del g.name
