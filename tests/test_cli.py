import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lieweyl
from lieweyl import OpMatrix, cli, lie, realization
from lieweyl.cli import MAX_ORDER, main

# a 3-dimensional antisymmetric spec that violates the Jacobi identity
NON_JACOBI = str(Path(__file__).with_name("non_jacobi.json"))
# the Heisenberg algebra [X1, X2] = X3, whose adjoint matrix squares to 0
HEISENBERG = str(Path(__file__).with_name("heisenberg.json"))


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


@pytest.mark.parametrize(
    "spec",
    [
        {"n": 2, "constants": "x"},
        {"n": 2, "constants": [1]},
        {"n": 2, "constants": None},
        {"n": 2, "constants": [{"mu": None, "nu": 2, "lambda": 1, "c": "1"}]},
        {"n": 0, "constants": []},
        {"n": -1, "constants": []},
        # floats and booleans, which int() would quietly turn into integers
        {"n": 2.7, "constants": []},
        {"n": True, "constants": []},
        {"n": 2, "constants": [{"mu": 1.9, "nu": 2, "lambda": 2, "c": "1"}]},
        {"n": 2, "constants": [{"mu": 1, "nu": 2.0, "lambda": 2, "c": "1"}]},
        {"n": 2, "constants": [{"mu": 1, "nu": 2, "lambda": True, "c": "1"}]},
        # a coefficient must be a string: a JSON number is read through a float
        {"n": 2, "constants": [{"mu": 1, "nu": 2, "lambda": 2, "c": 0.1}]},
        {"n": 2, "constants": [{"mu": 1, "nu": 2, "lambda": 2, "c": 1}]},
    ],
    ids=[
        "constants-str", "entry-int", "constants-null", "index-null", "n-0", "n-neg",
        "n-float", "n-bool", "mu-float", "nu-integral-float", "lambda-bool",
        "c-float", "c-int",
    ],
)
def test_malformed_spec_exits_2(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "verify", str(path), "--order", "2")
    assert code == 2 and "cannot load algebra" in err


def test_huge_dimension_rejected_before_allocation(capsys, tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("custom_algebra reached")

    monkeypatch.setattr(lie, "custom_algebra", unreachable)
    path = tmp_path / "spec.json"
    # a valid n does reach the (patched) builder
    path.write_text(json.dumps({"n": 2, "constants": []}))
    with pytest.raises(AssertionError, match="custom_algebra reached"):
        main(["validate", str(path)])
    path.write_text(json.dumps({"n": 10**9, "constants": []}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and f"outside 1..{lie.MAX_DIMENSION}" in err


@pytest.mark.parametrize("name", ["abelian0", f"abelian{lie.MAX_DIMENSION + 1}"])
def test_builtin_dimension_bounded(capsys, name):
    code, _, err = run(capsys, "validate", name)
    assert code == 2 and "dimension" in err


def test_kappa_b_dimension_bounded(capsys):
    b = ",".join(["1"] * (lie.MAX_DIMENSION + 1))
    code, _, err = run(capsys, "validate", "kappa", "--kappa-b", b)
    assert code == 2 and "dimension" in err


def test_validate_non_jacobi(capsys):
    code, out, _ = run(capsys, "validate", NON_JACOBI)
    assert code == 1 and "FAIL" in out


def test_verify_heisenberg_spec_all_suites(capsys):
    code, out, _ = run(capsys, "verify", HEISENBERG, "--suite", "all", "--order", "8",
                       "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True and report["order"] == 8


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


def test_star_check_duality_json(capsys):
    code, out, _ = run(capsys, "star", "su2", "x1*x2", "x3", "--order", "4",
                       "--check-duality", "--format", "json")
    assert code == 0 and json.loads(out)["duality"] is True


def test_star_degree_exceeds_order(capsys):
    code, _, err = run(capsys, "star", "g2", "x1^4", "x2^4", "--order", "6")
    assert code == 2 and "order" in err


# Fraction would expand "1e9999999999" into a power of ten and never return;
# a scalar is an integer or an integer fraction, so these are bad input
@pytest.mark.parametrize(
    "argv",
    [
        ["star", "g2", "1e9999999999*x1", "x2"],
        ["star", "g2", "x1", "1.5"],
        ["validate", "kappa", "--kappa-b", "1e9999999999,1"],
    ],
)
def test_exponent_or_decimal_scalar_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "malformed scalar" in err


# Exact stdout of the CLI: the renderers on an algebra with Gaussian and
# pure-imaginary coefficients, and whole verify reports, passing and failing.
# Each golden_*.txt file holds one "=== <case>/<format>" header per output.
GOLDEN_FILES = sorted(Path(__file__).parent.glob("golden_*.txt"))
KAPPA_1I_1 = ["kappa", "--kappa-b", "1i,1", "--order", "3"]
RENDER, REPORT = ("text", "latex", "json"), ("text", "json")
# case: (argv, formats, exit code)
GOLDEN_CASES = {
    "realize-weyl": (["realize", *KAPPA_1I_1], RENDER, 0),
    "realize-dual": (["realize", *KAPPA_1I_1, "--ordering", "dual"], RENDER, 0),
    "tmatrix": (["tmatrix", *KAPPA_1I_1], RENDER, 0),
    "star": (["star", *KAPPA_1I_1, "x1*x2", "x1 + x2"], RENDER, 0),
    "star-dual": (["star", *KAPPA_1I_1, "x1*x2", "x1 + x2", "--dual"], RENDER, 0),
    "verify-g2": (
        ["verify", "g2", "--suite", "all", "--order", "5", "--seed", "42"],
        REPORT,
        0,
    ),
    "verify-kappa": (
        ["verify", "kappa", "--kappa-b", "1i,0", "--suite", "all", "--order", "4",
         "--seed", "3"],
        REPORT,
        0,
    ),
    # the kappa suite on a kappa with two non-zero components
    "verify-kappa-suite": (
        ["verify", "kappa", "--kappa-b", "1i,1", "--suite", "kappa", "--order", "6",
         "--seed", "1"],
        REPORT,
        0,
    ),
    # fails jacobi, closure, duality and most of appendix, with witnesses
    "verify-non-jacobi": (
        ["verify", NON_JACOBI, "--suite", "all", "--order", "4", "--seed", "0"],
        REPORT,
        1,
    ),
}


def _golden():
    cases, name = {}, None
    for path in GOLDEN_FILES:
        for line in path.read_text().splitlines(keepends=True):
            if line.startswith("=== "):
                name = line[4:].strip()
                cases[name] = ""
            else:
                cases[name] += line
    return cases


def test_golden_covers_every_case():
    assert set(_golden()) == {
        f"{case}/{fmt}" for case, (_, fmts, _) in GOLDEN_CASES.items() for fmt in fmts
    }


@pytest.mark.parametrize(
    "case,fmt",
    [(case, fmt) for case in sorted(GOLDEN_CASES) for fmt in GOLDEN_CASES[case][1]],
    ids=lambda v: v,
)
def test_golden_rendering(capsys, case, fmt):
    argv, _, expected_code = GOLDEN_CASES[case]
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == expected_code
    assert out == _golden()[f"{case}/{fmt}"]


def test_verify_at_the_largest_order_is_byte_identical(capsys):
    # the closure suite at the CLI's largest order multiplies operators of
    # degree 32 cut at 31, where the product kernel's packed fields are widest
    code, out, _ = run(
        capsys, "verify", "kappa", "--kappa-b", "1i,1", "--suite", "closure",
        "--order", str(MAX_ORDER), "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "027750575bafd27c81d2eadf7ce10f5822beec2e3fc32f9d176010ef041d8e6f"
    )


def test_verify_all_forms_eight_matrix_products(capsys, monkeypatch):
    # every suite reads one uncut chain of C: its links C^2..C^7 (exp(C) at
    # order + 1 in the appendix suite), then the shift suite's T Tinv and Tinv T
    products = []
    mul = OpMatrix.__mul__
    monkeypatch.setattr(OpMatrix, "__mul__", lambda a, b: products.append(a) or mul(a, b))
    code, _, _ = run(capsys, "verify", "su2", "--suite", "all", "--order", "6")
    assert code == 0 and len(products) == 8


@pytest.mark.parametrize(
    "fmt, sha",
    [
        ("json", "8676b6a5a27a403803a98f26513188ba001e696ec090cef801918b8297126a02"),
        ("text", "51722d543d3cd5a11bd81531e019ad323168190e1acd5464dd9db98a18fd1cd1"),
    ],
    ids=["json", "text"],
)
def test_verify_all_builds_one_dual_algebra(capsys, monkeypatch, fmt, sha):
    # the duality and kappa suites each make a star context; both read the one
    # dual algebra kept in the algebra's caches
    names = []
    init = lie.LieAlgebra.__init__

    def counted(self, n, c, name="custom"):
        names.append(name)
        init(self, n, c, name)

    monkeypatch.setattr(lie.LieAlgebra, "__init__", counted)
    code, out, _ = run(capsys, "verify", "kappa", "--kappa-b", "1i,1,1/2", "--suite", "all",
                       "--order", "6", "--format", fmt)
    assert code == 0 and [x for x in names if x.endswith("~")] == ["kappa3~"]
    assert hashlib.sha256(out.encode()).hexdigest() == sha


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "g2", "--kappa-b", "1i,0,0", "--suite", "kappa", "--order", "3"],
        ["validate", "su2", "--kappa-b", "1i,0,0"],
        ["star", "abelian2", "x1", "x2", "--kappa-b", "1i,0"],
    ],
    ids=["verify", "validate", "star"],
)
def test_kappa_b_only_for_builtin_kappa(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "--kappa-b" in err and not out


def test_star_reads_its_own_gaussian_output(capsys):
    kappa = ("star", "kappa", "--kappa-b", "1i,1")
    code, out, _ = run(capsys, *kappa, "(1/2+1/2i)*x1", "x2")
    assert code == 0
    assert out == "(-1/4+1/4i)*x2 + (-1/4-1/4i)*x1 + (1/2+1/2i)*x1*x2\n"
    code, again, _ = run(capsys, *kappa, out.strip(), "1")
    assert code == 0 and again == out


def test_verify_kappa_suite_needs_b(capsys):
    code, _, err = run(capsys, "verify", "g2", "--suite", "kappa")
    assert code == 2 and "kappa-b" in err


def _write_phi(capsys, tmp_path, corrupt):
    _, out, _ = run(capsys, "realize", "g2", "--order", "4", "--format", "json")
    data = json.loads(out)
    corrupt(data["phi"])
    path = tmp_path / "phi.json"
    path.write_text(
        json.dumps({"n": data["n"], "order": data["order"], "phi": data["phi"]})
    )
    return str(path)


def test_validate_kappa_needs_kappa_b(capsys):
    code, out, err = run(capsys, "validate", "kappa")
    assert code == 2 and "builtin 'kappa' needs --kappa-b" in err and not out


def test_verify_phi_file_for_another_dimension_exits_2(capsys, tmp_path):
    path = _write_phi(capsys, tmp_path, lambda phi: None)
    code, _, err = run(capsys, "verify", "su2", "--suite", "closure", "--phi-file", path)
    assert code == 2 and "phi file is for n=2, algebra has n=3" in err


@pytest.mark.parametrize(
    "corrupt",
    [lambda phi: phi.pop(), lambda phi: phi[1].pop(), lambda phi: phi[0].append([])],
    ids=["row-missing", "entry-missing", "entry-extra"],
)
def test_verify_phi_matrix_not_n_by_n_exits_2(capsys, tmp_path, corrupt):
    path = _write_phi(capsys, tmp_path, corrupt)
    code, _, err = run(
        capsys, "verify", "g2", "--suite", "closure", "--order", "4", "--phi-file", path
    )
    assert code == 2 and "phi file matrix is not n x n" in err


def test_huge_order_rejected_before_building(capsys, tmp_path, monkeypatch):
    phi = _write_phi(capsys, tmp_path, lambda phi: None)

    def unreachable(*args, **kwargs):
        raise AssertionError("realization builder reached")

    monkeypatch.setattr(realization, "matrix_series", unreachable)
    monkeypatch.setattr(realization, "realization_from_phi", unreachable)
    # valid orders do reach the (patched) builders
    with pytest.raises(AssertionError, match="builder reached"):
        main(["realize", "g2", "--order", str(MAX_ORDER)])
    verify_phi = ["verify", "g2", "--suite", "closure", "--order", "4"]
    verify_phi += ["--phi-file", phi]
    with pytest.raises(AssertionError, match="builder reached"):
        main(verify_phi)
    for order in (MAX_ORDER + 1, 10**9):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "g2", "--order", str(order)])
        assert exc.value.code == 2
        assert f"outside 1..{MAX_ORDER}" in capsys.readouterr().err
        data = json.loads(Path(phi).read_text())
        Path(phi).write_text(json.dumps({**data, "order": order}))
        code, _, err = run(capsys, *verify_phi)
        assert code == 2 and f"outside 1..{MAX_ORDER}" in err


def test_verify_corrupted_phi(capsys, tmp_path):
    term = {"x": [0, 0], "d": [1, 0], "coeff": "1/3"}
    path = _write_phi(capsys, tmp_path, lambda phi: phi[0][0].append(term))
    code, out, _ = run(
        capsys, "verify", "g2", "--suite", "closure", "--order", "4", "--phi-file", path
    )
    assert code == 1 and "witness" in out


@pytest.mark.parametrize(
    "term,message",
    [
        ({"x": [0, 0, 0], "d": [1, 0], "coeff": "1"}, "exponents must be"),
        ({"x": [0], "d": [1, 0], "coeff": "1"}, "exponents must be"),
        ({"x": [0, 0, 0], "d": [1], "coeff": "1"}, "exponents must be"),
        ({"x": [0, 0], "d": [-1, 0], "coeff": "1"}, "exponents must be"),
        ({"x": [1, 0], "d": [0, 0], "coeff": "1"}, "x-free"),
        ({"x": [0, 0], "d": [1, 0], "coeff": 1}, "not a string"),
        ({"x": [0, 0], "d": [1, 0], "coeff": None}, "not a string"),
        # past the file's order 4: every term is checked before the cut
        ({"x": [0, 0], "d": [-1, 9], "coeff": "1"}, "exponents must be"),
        ({"x": [1, 0], "d": [0, 9], "coeff": "1"}, "x-free"),
        ({"x": [0, 0], "d": [0.5, 9], "coeff": "1"}, "exponents must be"),
        ({"x": [0, 0], "d": [True, 9], "coeff": "1"}, "exponents must be"),
    ],
    ids=[
        "x-too-long",
        "x-too-short",
        "x-d-shifted",
        "d-negative",
        "x-dependent",
        "coeff-int",
        "coeff-null",
        "d-negative-past-order",
        "x-dependent-past-order",
        "d-float-past-order",
        "d-bool-past-order",
    ],
)
def test_verify_malformed_phi_exits_2(capsys, tmp_path, term, message):
    path = _write_phi(capsys, tmp_path, lambda phi: phi[1][0].append(term))
    code, _, err = run(
        capsys, "verify", "g2", "--suite", "closure", "--order", "4", "--phi-file", path
    )
    assert code == 2 and message in err


def test_phi_file_is_cut_at_its_order_after_the_checks(capsys, tmp_path):
    # psi(C) written through order 6 under a header of order 4 reads as psi(C)
    # through 4: every term is checked at no order, then the matrix is cut
    _, out, _ = run(capsys, "realize", "g2", "--order", "6", "--format", "json")
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({**json.loads(out), "order": 4}))
    phi = cli._load_phi(str(path), 2)
    assert phi == realization.series_matrix(lie.g2_algebra(), "psi", 4)
    assert phi.valid_order() == 4


def test_verify_phi_with_a_repeated_key_exits_2(capsys, tmp_path):
    # the identity term twice, the first with another coefficient: read into a
    # dict, the last copy would win and closure would pass
    path = _write_phi(
        capsys, tmp_path, lambda phi: phi[0][0].insert(0, {**phi[0][0][0], "coeff": "5"})
    )
    code, _, err = run(
        capsys, "verify", "g2", "--suite", "closure", "--order", "4", "--phi-file", path
    )
    assert code == 2 and "listed twice" in err


@pytest.mark.parametrize(
    "header",
    [{"n": 2.7}, {"order": 4.9}, {"order": True}],
    ids=["n-float", "order-float", "order-bool"],
)
def test_verify_phi_header_must_be_integers(capsys, tmp_path, header):
    # int() would read these as n = 2, order 4 and order 0 and run closure on them
    path = Path(_write_phi(capsys, tmp_path, lambda phi: None))
    path.write_text(json.dumps({**json.loads(path.read_text()), **header}))
    verify = ["verify", "g2", "--suite", "closure", "--order", "4"]
    code, _, err = run(capsys, *verify, "--phi-file", str(path))
    assert code == 2 and "is not an integer" in err


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


def test_kept_parser_is_unchanged_by_parsing(capsys):
    # main reuses one parser per process, so a call must not leave state in it
    argv = ["star", "su2", "x1*x2", "x3", "--order", "4", "--check-duality"]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    for bad in (["star", "su2", "x1", "x2", "--format", "yaml"], ["verify", "g2", "--order", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    code, second, _ = run(capsys, *argv)
    assert code == 0 and second == first
    assert cli._build_parser() is cli._build_parser()


def test_cli_import_skips_dataclasses():
    # dataclasses pulls in inspect, ast and dis, which every fresh import then pays for
    code = (
        "import sys; before = set(sys.modules); import lieweyl.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(lieweyl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True).stdout
    new = set(out.split())
    assert "lieweyl.cli" in new
    assert not new & {"dataclasses", "inspect", "ast"}


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(lieweyl.__path__))
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"lieweyl.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_star_table_script_first_order_ok():
    script = Path(__file__).resolve().parents[1] / "scripts" / "star_table.py"
    src = str(Path(lieweyl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(script), "g2", "--max-degree", "1"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True).stdout
    lines = out.split("first-order check on generator pairs:\n")[1].splitlines()
    assert len(lines) == 4
    assert all(line.endswith("ok") for line in lines)


def _cli_process(stdout):
    src = str(Path(lieweyl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "lieweyl.cli", "verify", "su2", "--order", "4"],
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": path})


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_ends_in_one_error_line():
    with open("/dev/full", "w") as full:
        proc = _cli_process(full)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.splitlines() == ["error: cannot write the output: [Errno 28] No space left on device"]


def test_a_closed_pipe_ends_in_one_error_line():
    # the reading end is closed before the process writes
    proc = _cli_process(subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err.splitlines() == ["error: cannot write the output: [Errno 32] Broken pipe"]
