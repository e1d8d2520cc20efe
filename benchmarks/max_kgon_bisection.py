"""Cycle sweep of max_kgon's bisected second pass against one pass over all anchors.

The second pass of ``geometry._best_cycles`` bisects the anchors on the
shortest arc of the rooted k-gon down to intervals of ``_DP_LEAF`` anchors.
With ``_DP_LEAF = _MAX_HULL`` the whole arc is one leaf, which is a single
pass from all anchors at once.  This script runs both on seeded hulls and
counts the cycles that differ; it also times each side.

* Single hulls: ``max_kgon`` of ``sample_batch -> convex_hull`` at beta from
  -0.99 to 2 and N up to 10^6, two seeds each.
* Batch hulls: ``max_kgons`` of the stacked hulls ``uniform_hulls`` gives a
  batch of 16 trials, as a ``simulate`` job makes them.

Every case runs at k in {3, 4, 5, 8} with both objectives.  Run from the
repository root (~90 s on a 2-core x86-64 machine; the one-leaf side takes
~70 s of that):

    PYTHONPATH=src python3 benchmarks/max_kgon_bisection.py > benchmarks/max_kgon_bisection.txt

The exit status is 1 when any cycle differs.
"""

from __future__ import annotations

import functools
import sys
import time

from betapoly import geometry
from betapoly.geometry import Objective, convex_hull, max_kgon, max_kgons, uniform_hulls
from betapoly.sampler import BetaParams, SeedPolicy, sample_batch, select_uniforms

# (beta, N) points; near beta = -1 most points are hull vertices, so N is smaller there.
SINGLE = [(-0.99, N) for N in (300, 1_000, 2_000, 4_000)]
SINGLE += [(-0.9, N) for N in (1_000, 4_000, 8_000)]
SINGLE += [(beta, N) for beta in (-0.5, 0.0) for N in (10_000, 100_000, 1_000_000)]
SINGLE += [(beta, N) for beta in (0.5, 2.0) for N in (10_000, 100_000)]
SINGLE_SEEDS = (1, 2)
BATCH = [(-0.99, 250), (-0.9, 250), (-0.9, 1_000)]
BATCH += [(beta, N) for beta in (-0.5, 0.0, 0.5, 2.0) for N in (250, 1_000, 4_000)]
BATCH_TRIALS = 16
KS = (3, 4, 5, 8)


def timed(run):
    """``run()``'s result and its wall time in seconds."""
    start = time.perf_counter()
    out = run()
    return out, time.perf_counter() - start


def sweep(label, hull_sets, solve):
    """Print a table row per ``(beta, N)``; return ``(hulls, cycles, differ, seconds by side)``."""
    total = [0, 0, 0, {"bisected": 0.0, "one leaf": 0.0}]
    for (beta, N), hulls in hull_sets:
        cases = differ = 0
        times = {"bisected": 0.0, "one leaf": 0.0}
        for k in KS:
            for objective in Objective:
                results = {}
                sides = (("bisected", geometry._DP_LEAF), ("one leaf", geometry._MAX_HULL))
                for side, leaf in sides:
                    saved, geometry._DP_LEAF = geometry._DP_LEAF, leaf
                    try:
                        results[side], seconds = timed(lambda: solve(hulls, k, objective))
                    finally:
                        geometry._DP_LEAF = saved
                    times[side] += seconds
                pairs = list(zip(results["bisected"], results["one leaf"]))
                cases += len(pairs)
                differ += sum(a.vertex_indices != b.vertex_indices for a, b in pairs)
        sizes = [len(hull.vertex_indices) for hull, _ in hulls]
        print(
            f"| {label} | {beta} | {N} | {len(hulls)} | {min(sizes)}-{max(sizes)} | {cases} "
            f"| {differ} | {times['bisected']:.2f} | {times['one leaf']:.2f} |",
            flush=True,
        )
        total[0] += len(hulls)
        total[1] += cases
        total[2] += differ
        for side in times:
            total[3][side] += times[side]
    return total


def single_hulls():
    for beta, N in SINGLE:
        samples = [sample_batch(BetaParams(beta), N, SeedPolicy(seed), 0) for seed in SINGLE_SEEDS]
        yield (beta, N), [(convex_hull(pts), pts) for pts in samples]


def batch_hulls():
    policy = SeedPolicy(3)
    for beta, N in BATCH:
        selectors = [functools.partial(select_uniforms, policy, t, N) for t in range(BATCH_TRIALS)]
        hulls = uniform_hulls(BetaParams(beta), N, selectors)
        yield (beta, N), [(hull, pts) for _, pts, hull in hulls]


def main() -> int:
    print(f"k in {KS}, both objectives; _DP_LEAF = {geometry._DP_LEAF} against one leaf")
    print()
    print("| hulls | beta | N | count | h | cycles | differ | bisected s | one leaf s |")
    print("|---|---|---|---|---|---|---|---|---|")
    single = sweep(
        "single",
        single_hulls(),
        lambda hulls, k, objective: [max_kgon(hull, pts, k, objective) for hull, pts in hulls],
    )
    batch = sweep("batch", batch_hulls(), max_kgons)
    print()
    for label, (count, cases, differ, times) in (("single", single), ("batch", batch)):
        print(
            f"{label}: {count} hulls, {cases} cycles, {differ} differ; "
            f"{times['bisected']:.1f} s bisected, {times['one leaf']:.1f} s one leaf"
        )
    return 1 if single[2] or batch[2] else 0


if __name__ == "__main__":
    sys.exit(main())
