import json
from pathlib import Path

import pytest

from lieweyl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "g2")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "validate", "abelian3")
    assert code == 0


def test_validate_bad_spec(capsys, tmp_path):
    path = tmp_path / "bad.json"
    # non-antisymmetric: both (1,2,2) and (2,1,2) positive
    path.write_text(
        json.dumps(
            {"n": 2, "constants": [{"mu": 1, "nu": 2, "lambda": 2, "c": "bogus"}]}
        )
    )
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "error" in err


def test_validate_non_jacobi(capsys, tmp_path):
    path = tmp_path / "nj.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "constants": [
                    {"mu": 1, "nu": 2, "lambda": 3, "c": "1"},
                    {"mu": 1, "nu": 3, "lambda": 1, "c": "1"},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1 and "FAIL" in out


def test_realize_text_and_latex(capsys):
    code, out, _ = run(capsys, "realize", "g2", "--order", "3")
    assert code == 0
    assert "xhat1 = x1 + 1/2*x2*d2" in out
    code, out, _ = run(capsys, "realize", "g2", "--order", "3", "--format", "latex")
    assert "\\partial_{2}" in out and "\\frac{1}{2}" in out


def test_realize_dual(capsys):
    code, out, _ = run(capsys, "realize", "g2", "--order", "3", "--ordering", "dual")
    assert code == 0 and out.startswith("yhat1")


def test_realize_kappa_matches_g2(capsys):
    _, out_g2, _ = run(capsys, "realize", "g2", "--order", "4")
    _, out_k, _ = run(
        capsys, "realize", "kappa", "--kappa-b", "1,0", "--order", "4"
    )
    assert out_g2 == out_k


def test_star_examples(capsys):
    code, out, _ = run(capsys, "star", "g2", "x1", "x2")
    assert code == 0 and out.strip() == "1/2*x2 + x1*x2"
    code, out, _ = run(capsys, "star", "g2", "x1", "1")
    assert out.strip() == "x1"
    code, out, _ = run(capsys, "star", "g2", "x1", "x2", "--check-duality")
    assert code == 0 and "duality: PASS" in out
    code, out, _ = run(capsys, "star", "g2", "x2", "x1", "--dual")
    assert out.strip() == "1/2*x2 + x1*x2"


def test_star_degree_exceeds_order(capsys):
    code, _, err = run(capsys, "star", "g2", "x1^4", "x2^4", "--order", "6")
    assert code == 2 and "order" in err


# Exact stdout of the renderers on an algebra with Gaussian and pure-imaginary
# coefficients; the file holds one "=== <case>/<format>" header per output.
GOLDEN = Path(__file__).with_name("golden_render_kappa.txt")
KAPPA_1I_1 = ["kappa", "--kappa-b", "1i,1", "--order", "3"]
GOLDEN_CASES = {
    "realize-weyl": ["realize", *KAPPA_1I_1],
    "realize-dual": ["realize", *KAPPA_1I_1, "--ordering", "dual"],
    "tmatrix": ["tmatrix", *KAPPA_1I_1],
    "star": ["star", *KAPPA_1I_1, "x1*x2", "x1 + x2"],
    "star-dual": ["star", *KAPPA_1I_1, "x1*x2", "x1 + x2", "--dual"],
}


def _golden():
    cases, name = {}, None
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("=== "):
            name = line[4:].strip()
            cases[name] = ""
        else:
            cases[name] += line
    return cases


def test_golden_covers_every_case():
    assert set(_golden()) == {
        f"{case}/{fmt}" for case in GOLDEN_CASES for fmt in ("text", "latex", "json")
    }


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_rendering(capsys, case, fmt):
    code, out, _ = run(capsys, *GOLDEN_CASES[case], "--format", fmt)
    assert code == 0
    assert out == _golden()[f"{case}/{fmt}"]


def test_tmatrix_json(capsys):
    code, out, _ = run(capsys, "tmatrix", "g2", "--order", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and "T" in data and "Tinv" in data


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "g2", "--order", "4", "--seed", "1")
    assert code == 0 and "RESULT: PASS" in out


def test_verify_deterministic(capsys):
    args = ["verify", "g2", "--suite", "all", "--seed", "42", "--order", "4",
            "--format", "json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    report = json.loads(out1)
    assert report["seed"] == 42 and report["pass"]


def test_verify_kappa_suite(capsys):
    code, out, _ = run(
        capsys,
        "verify", "kappa", "--kappa-b", "1i,0", "--suite", "kappa",
        "--order", "4", "--seed", "3",
    )
    assert code == 0 and "RESULT: PASS" in out


def test_verify_kappa_suite_needs_b(capsys):
    code, _, err = run(capsys, "verify", "g2", "--suite", "kappa")
    assert code == 2 and "kappa-b" in err


def test_verify_corrupted_phi(capsys, tmp_path):
    _, out, _ = run(capsys, "realize", "g2", "--order", "4", "--format", "json")
    data = json.loads(out)
    data["phi"][0][0].append({"x": [0, 0], "d": [1, 0], "coeff": "1/3"})
    path = tmp_path / "phi.json"
    path.write_text(
        json.dumps({"n": data["n"], "order": data["order"], "phi": data["phi"]})
    )
    code, out, _ = run(
        capsys,
        "verify", "g2", "--suite", "closure", "--order", "4",
        "--phi-file", str(path),
    )
    assert code == 1 and "witness" in out


def test_unknown_algebra(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2 and "cannot load" in err


def test_bad_kappa_b(capsys):
    code, _, err = run(capsys, "validate", "kappa", "--kappa-b", "1,zzz")
    assert code == 2 and "kappa-b" in err


def test_order_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["realize", "g2", "--order", "0"])
    assert exc.value.code == 2
