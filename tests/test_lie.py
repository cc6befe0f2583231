import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieweyl import (
    AlgebraSpecError,
    I,
    ONE,
    KappaAlgebra,
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


# -- an independent reference: the dense Jacobi sum on (re, im) integer pairs ---


def _ref_str(re, im):
    if not im:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def dense_validate(g):
    """validate()'s report from every C_{mu al rho} C_{rho be nu}, zeros
    included, on the constants' Fraction parts scaled to integers by one
    common denominator den."""
    n = g.n
    den = lcm(*(q.denominator for m in g.c for row in m for x in row for q in (x.re, x.im)))
    c = [[[((x.re * den).numerator, (x.im * den).numerator) for x in row] for row in m]
         for m in g.c]
    anti, jacobi, witnesses = True, True, []
    for mu, nu, lam in product(range(n), repeat=3):
        re, im = c[nu][mu][lam]
        if c[mu][nu][lam] != (-re, -im):
            anti = False
            witnesses.append({"kind": "antisymmetry", "indices": [mu + 1, nu + 1, lam + 1]})
    for mu, al, be, nu in product(range(n), repeat=4):
        re = im = 0
        for rho in range(n):
            for (p, q), (r, s) in ((c[mu][al][rho], c[rho][be][nu]),
                                   (c[al][be][rho], c[rho][mu][nu]),
                                   (c[be][mu][rho], c[rho][al][nu])):
                re += p * r - q * s
                im += p * s + q * r
        if re or im:
            jacobi = False
            witnesses.append({"kind": "jacobi", "indices": [mu + 1, al + 1, be + 1, nu + 1],
                              "residual": _ref_str(Fraction(re, den**2), Fraction(im, den**2))})
            if len(witnesses) > 10:
                return {"antisymmetry": anti, "jacobi": False, "witnesses": witnesses}
    return {"antisymmetry": anti, "jacobi": jacobi, "witnesses": witnesses}


# about half the constants zero, so some tables pass and some stop short of the cap
constants = st.just(Scalar(0)) | st.sampled_from(
    [ONE, -ONE, Scalar(2), I, Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 3), Fraction(2, 5))]
)


@st.composite
def antisymmetric_algebras(draw):
    n = draw(st.integers(1, 4))
    entries = {}
    for mu, nu in combinations(range(n), 2):
        for lam in range(n):
            x = draw(constants)
            entries[mu, nu, lam], entries[nu, mu, lam] = x, -x
    return custom_algebra(n, entries)


NON_JACOBI = Path(__file__).resolve().parent / "non_jacobi.json"


def test_sparse_jacobi_sum_is_the_dense_one_on_the_broken_spec():
    g = load_algebra(str(NON_JACOBI))
    rep = validate(g)
    assert rep == dense_validate(g) and not rep["jacobi"]


@given(antisymmetric_algebras())
@settings(max_examples=60, deadline=None)
def test_sparse_jacobi_sum_is_the_dense_one(g):
    assert validate(g) == dense_validate(g)


def test_validate_multiplies_only_nonzero_constants(monkeypatch):
    calls = []
    mul = Scalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    assert validate(abelian(32)) == {"antisymmetry": True, "jacobi": True, "witnesses": []}
    assert not calls
    assert validate(su2_algebra())["jacobi"] and calls  # the counter is live


def test_dual_and_rescale():
    g = g2_algebra()
    d = dual_algebra(g)
    assert d.c[0][1][1] == -g.c[0][1][1]
    h = rescale(g, Scalar(1) / 3)
    assert h.c[0][1][1] == g.c[0][1][1] / 3


def test_dual_and_rescale_of_kappa_keep_b():
    # negating or scaling kappa(b)'s constants gives kappa(-b) and kappa(h b)
    g = kappa_algebra([I, Scalar(1, 2), Scalar(0)])
    h = Scalar(2, -3)
    for got, b in ((dual_algebra(g), [-x for x in g.b]), (rescale(g, h), [x * h for x in g.b])):
        assert isinstance(got, KappaAlgebra) and got == kappa_algebra(b) and got.b == tuple(b)
    assert dual_algebra(g).name == "kappa3~" and rescale(g, h).name == "kappa3"
    generic = su2_algebra()
    assert dual_algebra(generic).c == rescale(generic, -1).c


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
    with open(path) as fh:
        assert load_algebra(fh).c == g.c


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
