"""Benchmark of lieweyl: time to an exact verdict, and per-layer costs.

Run from the root of a checkout:

    python3 bench/run.py --workload star-stream --seed 1 --seconds 35 --trace 0

Each workload is one process with one closed-loop client: the next op starts
only after the previous one has finished.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones (see bench/README.md).
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer
from workloads import WORKLOADS, Lieweyl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MAX_REPORTED_FAILURES = 5

# The host runs everything up to 1.9x slower for stretches of seconds to
# minutes, process CPU time included (bench/README.md).  So every time in the
# end-to-end metrics is scaled to the host at full speed by a probe of fixed
# stdlib Fraction arithmetic, which shares no code with lieweyl, taken next to
# the timed work: time * PROBE_FULL_SPEED_S / probe time.
PROBE_FULL_SPEED_S = 1.33e-3  # fastest probe seen on a 2-core 2.0 GHz VM, Python 3.11.7
PROBE_EVERY_S = 0.5


def probe():
    """Fastest of three runs of the fixed loop, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            s = Fraction(0)
            for k in range(1, 300):
                s += Fraction(1, k) * Fraction(k, k + 1)
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """The latest probe, renewed when it is older than PROBE_EVERY_S."""

    def __init__(self):
        self.taken, self.seconds = None, None

    def current(self):
        now = perf_counter()
        if self.taken is None or now - self.taken > PROBE_EVERY_S:
            self.seconds = probe()
            self.taken = perf_counter()
        return self.seconds

    def timed(self, fn, *args):
        """(result, raw seconds, seconds scaled to full host speed)."""
        before = self.current()
        t0 = perf_counter()
        out = fn(*args)
        elapsed = perf_counter() - t0
        after = self.current()
        return out, elapsed, elapsed * PROBE_FULL_SPEED_S * 2 / (before + after)


# modules loaded before lieweyl; every module imported after this point is
# dropped before each set-up so that each one pays the full import
_BASELINE_MODULES = set(sys.modules)


def _imported_since_baseline():
    return {name: mod for name, mod in sys.modules.items() if name not in _BASELINE_MODULES}


def fresh_import():
    for name in _imported_since_baseline():
        del sys.modules[name]
    return Lieweyl()


class Client:
    """Runs ops one after another, timing the call and checking the output."""

    def __init__(self, workload, shared, speed=None):
        self.workload, self.shared, self.speed = workload, shared, speed
        self.attempted = self.failed = 0
        self.raw_s = 0.0

    def run(self, op):
        """The op's time, scaled to full host speed when probing; None if it failed."""
        self.attempted += 1
        try:
            if self.speed is None:
                t0 = perf_counter()
                output = self.workload.call(self.shared, op)
                elapsed = raw = perf_counter() - t0
            else:
                output, raw, elapsed = self.speed.timed(self.workload.call, self.shared, op)
            self.raw_s += raw
            reason = self.workload.check(self.shared, op, output)
        except Exception:  # an op that raises counts as failed; keep measuring
            reason = traceback.format_exc()
        if reason is None:
            return elapsed
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"failed op {op[0]!r}: {reason}", file=sys.stderr)
        return None

    def run_pass(self, ops):
        return [self.run(op) for op in ops]


def setup(workload, tr=None):
    lw = fresh_import()
    if tr is not None:
        tr.install()
    return lw, workload.setup(lw)


def measure(workload, ops, seconds):
    """End-to-end metrics from passes over the op list until `seconds` is up.

    Times are scaled to full host speed.  Each op counts at its median over
    the passes, and the set-ups are spread over the whole run instead of
    being made back to back.
    """
    speed = HostSpeed()
    setup_times = []

    def timed_setup():
        (lw, shared), _, scaled = speed.timed(setup, workload)
        setup_times.append(scaled)
        return lw, shared

    def timed_extra_setup():
        # the ops keep their own module generation: lieweyl imports lazily
        # inside functions, and Scalars of two generations do not mix
        timed_setup()
        sys.modules.update(in_use)

    lw, shared = timed_setup()
    in_use = _imported_since_baseline()
    workload.check_setup(shared)
    client = Client(workload, shared, speed)
    per_op = [[] for _ in ops]
    pass_times = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for samples, elapsed in zip(per_op, client.run_pass(ops)):
            if elapsed is not None:
                samples.append(elapsed)
        pass_times.append(perf_counter() - t0)
        timed_extra_setup()
        if perf_counter() - start + statistics.median(pass_times) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        timed_extra_setup()
    op_times = sorted(statistics.median(s) for s in per_op if s)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(op_times),
        "op_p50_ms": 1e3 * statistics.median(op_times),
        "op_p90_ms": 1e3 * statistics.quantiles(op_times, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MiB"}
    print(json.dumps({"passes": len(pass_times), "ops_per_pass": len(ops),
                      "setups": len(setup_times), "raw_op_s_per_pass": client.raw_s / len(pass_times)}))
    return lw, client, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def measure_traced(workload, ops):
    """Per-layer metrics: one untraced and one traced set-up plus pass."""
    t0 = perf_counter()
    lw, shared = setup(workload)
    workload.check_setup(shared)
    Client(workload, shared).run_pass(ops)
    untraced = perf_counter() - t0

    tr = tracer.Tracer()
    t0 = perf_counter()
    lw, shared = setup(workload, tr)
    workload.check_setup(shared)
    client = Client(workload, shared)
    client.run_pass(ops)
    traced = perf_counter() - t0

    values = tr.metrics()
    values[tracer.OVERHEAD_METRIC] = traced - untraced
    return lw, client, {name: {"value": values[name], "unit": tracer.unit_of(name)}
                        for name in tracer.METRIC_NAMES}


def environment(lw):
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "backend": lw.scalars.Q.__module__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lieweyl" / "__init__.py").is_file():
        print(f"error: no lieweyl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    if args.trace:
        lw, client, metrics = measure_traced(workload, ops)
    else:
        lw, client, metrics = measure(workload, ops, args.seconds)
    print(json.dumps({"env": environment(lw)}))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
