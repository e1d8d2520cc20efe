"""One trial's ``select_uniforms`` on each of its angle paths, and where they cross.

At every ``N`` ``select_uniforms`` reads the radius block alone and then
gets the kept points' angle uniforms one of two ways: ``_jumped_uniforms``
computes them from the angle block's start state, or the angle block is
drawn in chunks and indexed.  ``_jump_pays`` picks one from the kept count
and ``count``.  This script times, with that rule forced each way, against
the lockstep read that draws both blocks together (``uniform_chunks``, the
tail probe's read and trials' read before the angle paths):

* per trial: ``select_uniforms`` at the far floor ``1 - _far_count(N) / N``
  of trial 0 at ``N`` in {10^4, 2 10^4, 4 10^4, 6 10^4, 10^5, 10^6, 10^7,
  10^8}, beta-free (the read sees only uniforms), the median of a few
  calls per path, and ``N - _JUMP_COST * kept * bit_length(N)``, the
  ``_JUMP_FIXED`` below which the rule jumps there (a jump costs ~0.1 ms
  however few indices it gets, its Python work per hex digit, and the
  fixed term carries that);
* crossover: at ``N`` in {10^5, 10^6, 10^7}, the kept count at which the
  two angle paths cost the same, from floors that keep ``2 sqrt(N)``
  times powers of 2 (the best of 7 calls each, the paths in turn, and a
  straight line in the kept count fitted to each path's times), and the
  rule's constant it implies, ``(N - _JUMP_FIXED) / (kept * bit_length(N))``.

Every selection is checked against the lockstep one.  Run from the
repository root (~35 s on a 2-core x86-64 machine):

    PYTHONPATH=src python3 benchmarks/angle_jump.py > benchmarks/angle_jump.txt

The exit status is 1 when any path selects other doubles than the lockstep
read.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from unittest import mock

import numpy as np

from betapoly import sampler
from betapoly.geometry import _far_count
from betapoly.sampler import SeedPolicy, select_uniforms, uniform_chunks

TRIAL_NS = (10**4, 2 * 10**4, 4 * 10**4, 6 * 10**4, 10**5, 10**6, 10**7, 10**8)
CROSS_NS = (10**5, 10**6, 10**7)
POLICY = SeedPolicy(42)


def lockstep(N: int, floor: float):
    """Trial 0's selection read as both blocks in lockstep chunks."""
    picks = []
    chunks = uniform_chunks(POLICY, 0, N, skip=0, size=sampler._CHUNK)
    for lo, (a, r) in zip(range(0, N, sampler._CHUNK), chunks):
        i = np.flatnonzero(r >= floor)
        picks.append((i + lo, a[i], r[i]))
    return tuple(np.concatenate(p) for p in zip(*picks))


def on_path(jump: bool):
    """``select_uniforms`` of trial 0 with ``_jump_pays`` forced to ``jump``."""

    def select(N, floor):
        with mock.patch.object(sampler, "_jump_pays", lambda kept, count: jump):
            return select_uniforms(POLICY, 0, N, floor)

    return select


PATHS = {"lockstep": lockstep, "block": on_path(False), "jump": on_path(True)}


def times(paths, N: int, floor: float, calls: int, reference) -> dict[str, list[float]]:
    """Wall seconds of ``calls`` calls of each path at ``(N, floor)``, the paths taken in turn.

    Every result must equal ``reference``, the lockstep read's.
    """
    out = {name: [] for name in paths}
    for _ in range(calls):
        for name in paths:
            start = time.perf_counter()
            got = PATHS[name](N, floor)
            out[name].append(time.perf_counter() - start)
            if not all(map(np.array_equal, got, reference)):
                raise AssertionError(f"N = {N}, floor = {floor}: {name} selected other doubles")
    return out


def trial_rows(Ns=TRIAL_NS):
    """Per ``N``: kept count, the rule's path and median ms of each path, at the far floor."""
    for N in Ns:
        floor = 1.0 - _far_count(N) / N
        reference = lockstep(N, floor)
        runs = times(PATHS, N, floor, 21 if N <= 10**5 else 7 if N <= 10**6 else 3, reference)
        ms = {name: 1e3 * statistics.median(t) for name, t in runs.items()}
        kept = len(reference[0])
        yield N, kept, "jump" if sampler._jump_pays(kept, N) else "block", ms


def crossover(N: int, calls: int = 7) -> tuple[float, list]:
    """The kept count at which the jump costs what the block does, and the sweep behind it.

    Each path's best time is fitted by least squares as linear in the kept
    count over a sweep of kept counts that ends where the jump has lost
    twice; the crossover is where the two lines meet.
    """
    sweep, k, lost = [], 2 * math.isqrt(N) // 4, 0
    while k <= N and lost < 2:
        floor = 1.0 - k / N
        reference = lockstep(N, floor)
        runs = times(("jump", "block"), N, floor, calls, reference)
        sweep.append((len(reference[0]), min(runs["jump"]), min(runs["block"])))
        lost += sweep[-1][1] > sweep[-1][2]
        k *= 2
    kept, jump, block = (np.array(column, dtype=float) for column in zip(*sweep))
    (bj, aj), (bb, ab) = np.polyfit(kept, jump, 1), np.polyfit(kept, block, 1)
    return (ab - aj) / (bj - bb), sweep


def main() -> int:
    print(
        f"sampler._CHUNK = {sampler._CHUNK}, _JUMP_COST = {sampler._JUMP_COST},"
        f" _JUMP_FIXED = {sampler._JUMP_FIXED}; trial 0 of seed 42"
    )
    print()
    print("| N | kept | rule | jumps below fixed | lockstep ms | block ms | jump ms |")
    print("|---|---|---|---|---|---|---|")
    for N, kept, rule, ms in trial_rows():
        flip = N - sampler._JUMP_COST * kept * N.bit_length()
        paths = f"{ms['lockstep']:.2f} | {ms['block']:.2f} | {ms['jump']:.2f}"
        print(f"| {N} | {kept} | {rule} | {flip} | {paths} |")
    print()
    print("| N | bits | kept at crossover | (N - fixed) / (kept * bits) | sweep: kept, jump ms, block ms |")
    print("|---|---|---|---|---|")
    for N in CROSS_NS:
        kept, sweep = crossover(N)
        cells = "; ".join(f"{k}, {1e3 * j:.2f}, {1e3 * b:.2f}" for k, j, b in sweep)
        bits = N.bit_length()
        cost = (N - sampler._JUMP_FIXED) / (kept * bits)
        print(f"| {N} | {bits} | {kept:.0f} | {cost:.2f} | {cells} |")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(err)
        sys.exit(1)
