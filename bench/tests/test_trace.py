"""Self-test of the traced run: stable counts, and every layer really traced."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# the workload on which each per-layer metric must be non-zero (bench/README.md)
NONZERO_ON = {
    "verify-generic": [
        "scalars.ops", "series.ops", "weyl.WeylOp_mul", "weyl.OpMatrix_mul",
        "weyl.matrix_series", "weyl.WeylOp_apply", "realization.build",
        "realization.suite.closure", "realization.suite.symmetrization",
        "realization.suite.appendix", "realization.suite.shift",
        "star.suite.duality", "cli.main",
    ],
    "kappa-closed": [
        "scalars.ops", "poly.ops", "series.ops", "weyl.series_in_op",
        "kappa.bidiff_star", "kappa.poisson_check", "kappa.closed_forms", "cli.main",
    ],
    "star-stream": [
        "scalars.ops", "poly.ops", "weyl.WeylOp_mul", "weyl.OpMatrix_mul",
        "weyl.matrix_series", "weyl.WeylOp_apply", "realization.build",
        "pbw.pbw_mul", "pbw.shift", "star.star", "star.omega", "star.omega_inv",
        "star.omega_cache_entries", "pbw.cache_entries",
    ],
}


def traced(workload, seed=3):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module", params=sorted(NONZERO_ON))
def two_runs(request):
    return request.param, traced(request.param), traced(request.param)


def test_metric_names_match_benchmark_json(two_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(two_runs[1]) == [m["name"] for m in spec["per_layer"]]


def test_counts_repeat_exactly(two_runs):
    _, first, second = two_runs
    assert {m: first[m] for m in tracer.DETERMINISTIC} == {
        m: second[m] for m in tracer.DETERMINISTIC}


def test_mapped_metrics_are_nonzero(two_runs):
    workload, metrics, _ = two_runs
    for layer in NONZERO_ON[workload]:
        names = [m for m in metrics if m == layer or m.startswith(layer + ".")]
        assert names, layer
        for name in names:
            assert metrics[name] > 0, (workload, name)


def test_bidiff_star_only_on_kappa_closed(two_runs):
    workload, metrics, _ = two_runs
    if workload == "kappa-closed":
        assert metrics["kappa.bidiff_star.calls"] > 0
    else:
        assert metrics["kappa.bidiff_star.calls"] == 0


def test_left_over_original_fails_install():
    def original():
        pass

    stray = types.ModuleType("lieweyl.stray")
    stray.helper = original
    with pytest.raises(RuntimeError, match="wrapper missing"):
        tracer.Tracer._assert_no_original([stray], {id(original): (original, None)})
