"""The output checks count every corrupted output as a failed op."""

from fractions import Fraction

import pytest

import checks
import run
from workloads import KAPPA_CLOSED, STAR_STREAM, VERIFY_GENERIC, Lieweyl


class Corrupting:
    """A workload whose timed call returns a corrupted output."""

    def __init__(self, workload, corrupt):
        self.workload, self.corrupt = workload, corrupt

    def call(self, shared, op):
        return self.corrupt(self.workload.call(shared, op))

    def check(self, shared, op, output):
        return self.workload.check(shared, op, output)


def failed_count(workload, shared, op, corrupt):
    client = run.Client(Corrupting(workload, corrupt), shared)
    client.run(op)
    return client.failed


@pytest.fixture(scope="module")
def lw():
    return Lieweyl()


@pytest.fixture(scope="module")
def verify_op():
    # the cheapest job, at seed 0 so its SHA-256 is gated
    ops = VERIFY_GENERIC.ops(0)
    return next(op for op in ops if op[0] == "g2 --suite closure --order 6 --seed 0")


def test_every_verify_report_matches_recorded_sha(lw):
    for workload in (VERIFY_GENERIC, KAPPA_CLOSED):
        for op in workload.ops(0):
            if "--order 8" in op[0] and op[0].startswith(("su2", "kappa")):
                continue  # the slow jobs are covered by the timed runs
            assert workload.check(lw, op, workload.call(lw, op)) is None, op[0]


def test_unchanged_verify_report_passes(lw, verify_op):
    assert failed_count(VERIFY_GENERIC, lw, verify_op, lambda out: out) == 0


def test_flipped_pass_is_failed(lw, verify_op):
    def flip(out):
        code, text = out
        head, sep, tail = text.rpartition('"pass": true')
        assert sep
        return code, head + '"pass": false' + tail

    assert failed_count(VERIFY_GENERIC, lw, verify_op, flip) == 1


def test_changed_report_byte_is_failed(lw, verify_op):
    # still valid JSON with every check passing; only the bytes differ
    def reindent(out):
        code, text = out
        return code, text.replace("\n  ", "\n   ", 1)

    assert failed_count(VERIFY_GENERIC, lw, verify_op, reindent) == 1


def test_exit_code_2_is_failed(lw, verify_op):
    assert failed_count(VERIFY_GENERIC, lw, verify_op, lambda out: (2, out[1])) == 1


@pytest.fixture(scope="module")
def stream(lw):
    shared = STAR_STREAM.setup(lw)
    STAR_STREAM.check_setup(shared)
    return shared


@pytest.mark.parametrize("index", [0, 1])  # su2, kappa
def test_unchanged_star_ops_pass(stream, index):
    op = STAR_STREAM.ops(7)[index]
    assert failed_count(STAR_STREAM, stream, op, lambda out: out) == 0


def _bump(lw, poly, degree):
    """Add 1/7 to the coefficient of x1^degree."""
    key = (degree,) + (0,) * (poly.n - 1)
    return poly + lw.poly.Polynomial(poly.n, {key: lw.scalars.Scalar(Fraction(1, 7))})


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("from_top", [0, 1])
def test_perturbed_product_is_failed(lw, stream, index, from_top):
    op = STAR_STREAM.ops(7)[index]
    _, f, g, _ = op
    degree = checks.p_degree(f) + checks.p_degree(g) - from_top

    def perturb_product_only(out):
        fg, gf_dual, xy = out
        return _bump(lw, fg, degree), gf_dual, xy

    def perturb_both(out):
        # f*g and g*~f still agree; the degree checks must catch it
        fg, gf_dual, xy = out
        return _bump(lw, fg, degree), _bump(lw, gf_dual, degree), xy

    assert failed_count(STAR_STREAM, stream, op, perturb_product_only) == 1
    assert failed_count(STAR_STREAM, stream, op, perturb_both) == 1


def test_raising_op_is_failed(stream):
    def boom(out):
        raise ZeroDivisionError("corrupt")

    assert failed_count(STAR_STREAM, stream, STAR_STREAM.ops(7)[0], boom) == 1


def test_lie_poisson_of_generators_is_the_bracket():
    C = checks.su2_constants()
    x = [{checks.unit(3, mu): (Fraction(1), Fraction(0))} for mu in range(3)]
    # {x1, x2} = x3 for su2
    assert checks.lie_poisson(C, x[0], x[1]) == x[2]
