#!/usr/bin/env python3
"""Cross-check the closed-form kappa-space objects against the generic engine.

For a range of working orders and deformation vectors b, build the
realization, its dual, and the shift matrices twice -- once from the
closed-form expressions in the single operator A = b.d, once from the
generic matrix-series engine -- and time both routes.  Everything is exact,
so agreement is coefficient-by-coefficient equality, not a tolerance.
"""

import argparse
import random
import time

from lieweyl import (
    I,
    KappaParams,
    KappaStarContext,
    Scalar,
    bidiff_star,
    dual_realization,
    kappa_closed_realization,
    kappa_dual_closed,
    kappa_power_check,
    kappa_t_closed,
    make_context,
    star,
    t_realization,
    weyl_realization,
)
from lieweyl.realization import random_polynomial


def crosscheck(p: KappaParams, order: int) -> dict:
    g = p.algebra()
    timings = {}

    t0 = time.perf_counter()
    closed = kappa_closed_realization(p, order)
    closed_d = kappa_dual_closed(p, order)
    Tc, Tci = kappa_t_closed(p, order)
    timings["closed"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    generic = weyl_realization(g, order)
    generic_d = dual_realization(g, order)
    Tg, Tgi = t_realization(g, order)
    timings["generic"] = time.perf_counter() - t0

    ok = all(
        closed.xhat[mu].d_part_degree_le(order)
        == generic.xhat[mu].d_part_degree_le(order)
        and closed_d.xhat[mu].d_part_degree_le(order)
        == generic_d.xhat[mu].d_part_degree_le(order)
        for mu in range(p.n)
    )
    ok = ok and Tc.agrees_through(Tg, order) and Tci.agrees_through(Tgi, order)
    ok = ok and all(kappa_power_check(p, k, order) for k in range(1, order + 1))
    return {"pass": ok, **timings}


def star_check(p: KappaParams, order: int, trials: int, seed: int) -> bool:
    rng = random.Random(seed)
    ctx = make_context(p.algebra(), order)
    kctx = KappaStarContext(p, order)
    deg = min(3, order // 2)
    for _ in range(trials):
        f = random_polynomial(rng, p.n, deg)
        g = random_polynomial(rng, p.n, deg)
        if bidiff_star(kctx, f, g) != star(ctx, f, g):
            return False
        if bidiff_star(kctx, f, g, dual=True) != star(ctx, f, g, "dual"):
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=8)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = {
        "n=2 axis": KappaParams([I, Scalar(0)]),
        "n=3 axis": KappaParams([I, Scalar(0), Scalar(0)]),
        "n=3 generic": KappaParams([I, Scalar(1), Scalar(1) / 2]),
        "n=4 generic": KappaParams([I, Scalar(0), Scalar(1), Scalar(1) / 3]),
    }
    for label, p in params.items():
        for order in range(4, args.max_order + 1, 2):
            res = crosscheck(p, order)
            print(
                f"{label:12s} order {order}: "
                f"{'PASS' if res['pass'] else 'FAIL'}  "
                f"closed {res['closed'] * 1e3:7.1f} ms   "
                f"generic {res['generic'] * 1e3:7.1f} ms"
            )
        ok = star_check(p, min(args.max_order, 6), args.trials, args.seed)
        print(f"{label:12s} bi-differential star vs generic: "
              f"{'PASS' if ok else 'FAIL'}")


if __name__ == "__main__":
    main()
