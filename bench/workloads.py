"""The three workloads: inputs drawn from the seed, the op, and its check.

A workload has ``ops(seed)`` (a fixed list of inputs, drawn here and not by
lieweyl), ``setup(lw)`` (what the ops share, built from the imported package),
``check_setup(shared)``, ``call(shared, op)``, which performs one op and is
the part that is timed, and ``check(shared, op, output)``, which returns
``None`` when the output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from fractions import Fraction

import checks

# SHA-256 of verify reports, keyed by the job's arguments.  A report that is
# not byte-identical to the recorded one fails its op.
REPORT_SHA256 = {
    "su2 --suite closure --order 6 --seed 0":
        "f4f19f4f2218be8973b1bf68a01513a195cee74d191ac61548df9c8004e8aa24",
    "su2 --suite symmetrization --order 6 --seed 0":
        "d9e74d1100015ddbe1ea3548cc6fde84b74f3a808cc425921695232ab2ff99d6",
    "su2 --suite duality --order 6 --seed 0":
        "138c56dd19f621b5a10a7dfe98223a7bebccc07e81165d2d8831a2bad5ebe9f9",
    "su2 --suite appendix --order 6 --seed 0":
        "106017529238ef105461d0f64aa52f30bf6b29dc464f8916db1d4d554108b1f6",
    "su2 --suite closure --order 8 --seed 0":
        "3ae45fb135537978f3ca2d23bfacacb11946336b5d8aed4eaaf80bc501c78042",
    "su2 --suite symmetrization --order 8 --seed 0":
        "deb0550214a6aa33b735624a5f8468fc38c008b4a16830652f8cf1841bc6cb9b",
    "su2 --suite duality --order 8 --seed 0":
        "11c57ea97d07c5a7c35c3cd4d94aa4a522f7bde2b41fba5d210e185e543518ac",
    "su2 --suite appendix --order 8 --seed 0":
        "6a88a451e5a08e959d4adcab336210d39ffb81f6b16c1abf56a875a5192259bb",
    "g2 --suite closure --order 6 --seed 0":
        "31b630abca42b1130e8b8a3dc69ce5630aa6e57201cf5da62e972aa3884a0742",
    "g2 --suite symmetrization --order 6 --seed 0":
        "e80b29779c3cf9004968927d7caaeef5e662a63599734ffd3cf0177b6225c9d4",
    "g2 --suite duality --order 6 --seed 0":
        "62b4b605f0464ae627d6e419c2f628cef041344ca7e3e5b3f3f5a71688c398bc",
    "g2 --suite appendix --order 6 --seed 0":
        "f96ac147203c24271001aab45445fc3f59c43d60d5d2d002089bcbc5c5894d71",
    "g2 --suite closure --order 8 --seed 0":
        "b2310eb786e7f6747b39e3f4fee6d9711092d0f1d449ec7d9c30a4ea01e4bc94",
    "g2 --suite symmetrization --order 8 --seed 0":
        "6225c283a9af118462dae2a311f830788de3212f06a5b96eba11bba54e8823d3",
    "g2 --suite duality --order 8 --seed 0":
        "819298a0e8074d8891771419ad871b5bf74487162baa30d836620fe61e1aa6fb",
    "g2 --suite appendix --order 8 --seed 0":
        "9877e222aab72759924c6cac8a14610a483c66938927c9706ae67474eda68a95",
    "kappa --suite closure --order 6 --kappa-b 1i,0,0 --seed 0":
        "cdef8f7e1794cbe810f7917f6650667e105a4a9126885d79e3f952fdd5e1d79a",
    "kappa --suite symmetrization --order 6 --kappa-b 1i,0,0 --seed 0":
        "8e800078fe8c9ffd49298b98e996a75780cb8b0a1ba1fc350e627d91a96a5f54",
    "kappa --suite duality --order 6 --kappa-b 1i,0,0 --seed 0":
        "2178f7b2e5a84a80f21ed468a223bd9ff10cef57035817a63de537b5ae3c3201",
    "kappa --suite appendix --order 6 --kappa-b 1i,0,0 --seed 0":
        "d65f950403f2c05f610cdead5125856a63986805c97f3fb84ecf163d828ec553",
    "kappa --suite kappa --order 8 --kappa-b 1i,1 --seed 0":
        "34395c94a43b70ed9d3f6b7521f5da665f7ee047a6c350a0f9237582f1d062f1",
    "kappa --suite kappa --order 6 --kappa-b 1i,0,0 --seed 0":
        "e42cc2926644be64af1015cbe53c10ac1325e519341d3f4c7f0f4bafbacd0762",
    "kappa --suite kappa --order 8 --kappa-b 1i,1 --seed 1":
        "060de7f1ac7988e5619be0d004fdafb0a2b7fcc2b689f08c5b105b63b5021891",
    "kappa --suite kappa --order 8 --kappa-b 1i,1 --seed 2":
        "b19a417596e9cd649d1251d5660d6b2bb81691083ce9812c22e0f0ee1265c74c",
    "kappa --suite kappa --order 6 --kappa-b 1i,0,0 --seed 1":
        "7bc3613cb9ad503d039c07c6c545bdba6a440dea02c3231ce80837b42bf9a222",
    "kappa --suite kappa --order 6 --kappa-b 1i,0,0 --seed 2":
        "1adb902c4723e7e485912b7aa48335990f123bee9982b3efbf7bd5acaffb1aa8",
}


class Lieweyl:
    """The imported lieweyl submodules by short name (``lw.star``, ``lw.cli``).

    Ops look a function up on its module at each call, so they reach the
    tracer's wrappers when those are installed.
    """

    def __init__(self):
        import lieweyl.cli  # noqa: F401 - registers lieweyl.cli

        self.mods = {name[len("lieweyl."):]: mod for name, mod in sys.modules.items()
                     if name.startswith("lieweyl.")}

    def __getattr__(self, name):
        return self.mods[name]


# -- verify workloads ------------------------------------------------------------


class VerifyWorkload:
    """In-process ``lieweyl verify ... --format json`` jobs, one op per job.

    Each job's ``--seed`` is drawn from the workload seed, except that
    workload seed 0 runs every job with ``--seed 0``.  With `fixed_seeds`,
    each job runs once per listed ``--seed`` whatever the workload seed.
    Every report with a recorded SHA-256 must match it.
    """

    def __init__(self, jobs, fixed_seeds=None):
        self.jobs = jobs  # (label, argv without --seed and --format)
        self.fixed_seeds = fixed_seeds

    def ops(self, seed):
        if self.fixed_seeds is not None:
            return [(f"{label} --seed {s}", argv, s)
                    for label, argv in self.jobs for s in self.fixed_seeds]
        rng = random.Random(seed)
        return [(f"{label} --seed {s}", argv, s)
                for label, argv in self.jobs for s in [rng.randrange(2**31) if seed else 0]]

    def setup(self, lw):
        return lw

    def check_setup(self, lw):
        pass

    def call(self, lw, op):
        _, argv, job_seed = op
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = lw.cli.main([*argv, "--seed", str(job_seed), "--format", "json"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, lw, op, output):
        label, _, job_seed = op
        sha = REPORT_SHA256.get(label)
        if sha is None and job_seed == 0:
            return f"no recorded SHA-256 for {label}"
        return checks.check_report(*output, job_seed, sha)


def _verify_jobs(algebras, suites):
    jobs = []
    for name, order, extra in algebras:
        for suite in suites:
            argv = ["verify", name, "--suite", suite, "--order", str(order), *extra]
            jobs.append((" ".join(argv[1:]), argv))
    return jobs


VERIFY_GENERIC = VerifyWorkload(_verify_jobs(
    [("su2", 6, []), ("su2", 8, []), ("g2", 6, []), ("g2", 8, []),
     ("kappa", 6, ["--kappa-b", "1i,0,0"])],
    ["closure", "symmetrization", "duality", "appendix"],
))

# The kappa suite draws 10 random pairs per job from --seed, and one seed's
# pairs cost up to 35% more than another's.  Seeds drawn per run moved
# op_p50_ms by 0.26 IQR/median over ten runs, past its bound, so the three
# seeds are fixed; in exchange every kappa-closed report is SHA-gated.
KAPPA_CLOSED = VerifyWorkload(_verify_jobs(
    [("kappa", 8, ["--kappa-b", "1i,1"]), ("kappa", 6, ["--kappa-b", "1i,0,0"])],
    ["kappa"],
), fixed_seeds=(0, 1, 2))


# -- star-stream -------------------------------------------------------------------


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def draw_polynomial(rng, n, max_degree, gaussian, terms=4):
    """A non-constant polynomial with up to `terms` terms, degree <= max_degree."""
    while True:
        out = {}
        for _ in range(terms):
            exps = [0] * n
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(n)] += 1
            c = (_rational(rng), _rational(rng) if gaussian else Fraction(0))
            checks.add_term(out, tuple(exps), c)
        if checks.p_degree(out) > 0:
            return out


KAPPA_B = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(0))]
# (context name, max degree of f and g, Gaussian coefficients)
STREAM_CONTEXTS = (("su2", 4, False), ("kappa", 3, True))


class StarStream:
    """Star products on two warm StarContexts: su2 at order 8, kappa(1i,1,1/2) at 6."""

    def __init__(self, count):
        self.count = count

    def ops(self, seed):
        rng = random.Random(seed)
        out = []
        for k in range(self.count):
            which, deg, gaussian = STREAM_CONTEXTS[k % 2]
            f = draw_polynomial(rng, 3, deg, gaussian)
            g = draw_polynomial(rng, 3, deg, gaussian)
            out.append((which, f, g, rng.randrange(3)))
        return out

    def setup(self, lw):
        S = lw.scalars.Scalar
        su2 = lw.star.make_context(lw.lie.su2_algebra(), 8)
        kappa = lw.star.make_context(
            lw.lie.kappa_algebra([S(re, im) for re, im in KAPPA_B]), 6)
        return {"lw": lw, "su2": su2, "kappa": kappa}

    def check_setup(self, shared):
        """The engine's structure constants equal the ones written out here."""
        expected = {"su2": checks.su2_constants(), "kappa": checks.kappa_constants(KAPPA_B)}
        for which, C in expected.items():
            got = [[[own(c) for c in row] for row in plane]
                   for plane in shared[which].algebra.c]
            if got != C:
                raise RuntimeError(f"structure constants of {which} are not the expected ones")
        shared["constants"] = expected

    def call(self, shared, op):
        which, f, g, mu = op
        lw, ctx = shared["lw"], shared[which]
        star = lw.star
        F, G = to_engine(lw, f), to_engine(lw, g)
        fg = star.star(ctx, F, G)
        gf_dual = star.star(ctx, G, F, "dual")
        xy = lw.pbw.y_action(ctx.algebra, mu, star.omega_inv(ctx, F))
        return fg, gf_dual, xy

    def check(self, shared, op, output):
        which, f, g, mu = op
        fg, gf_dual, xy = (from_engine(p) for p in output)
        return (checks.check_star(shared["constants"][which], f, g, fg, gf_dual)
                or checks.check_y_action(f, mu, xy))


def own(c):
    return (Fraction(c.re), Fraction(c.im))


def from_engine(p):
    """Polynomial or PBWElement -> {exps: (re, im)}."""
    return {tuple(k): own(c) for k, c in p.terms.items()}


def to_engine(lw, f):
    S = lw.scalars.Scalar
    return lw.poly.Polynomial(3, {k: S(re, im) for k, (re, im) in f.items()})


STAR_STREAM = StarStream(count=240)

WORKLOADS = {
    "verify-generic": VERIFY_GENERIC,
    "kappa-closed": KAPPA_CLOSED,
    "star-stream": STAR_STREAM,
}
