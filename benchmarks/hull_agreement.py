"""How often ``uniform_hulls`` and ``convex_hull`` give different hulls of one sample.

``uniform_hulls`` builds a batch's hulls by reflex-vertex elimination on
x-monotone polygons; ``convex_hull`` runs the monotone chain.  Both decide
turns with float cross products, so on near-collinear or near-coincident
triples they can keep different vertices.  For each input set below this
script counts the samples whose two hulls differ, and prints the largest
relative perimeter gap and the largest absolute area gap between them:

* near-duplicate clouds: 16 385 clouds of 130 to 399 points at
  ``beta = -0.99``, with 1 to 19 points moved one ulp of angle uniform
  away from others, at radius uniforms near 1;
* ulp-apart angle pairs: 2 000 clouds of the same sizes at ``beta =
  -0.99`` whose radius uniforms all lie in [1/2, 1), so every radius rounds
  to 1, with 1 to 19 pairs of angle uniforms one ulp apart;
* seeded trials: 700 trials of ``N = 250`` points at each ``beta`` in
  {-0.99, -0.9, 0, 2}, in batches of 262 as ``simulate`` makes them;
* a ray: 10^5 points at one angle uniform, 0.125, at ``beta = 0``.

Run from the repository root (~35 s on a 2-core x86-64 machine):

    PYTHONPATH=src python3 benchmarks/hull_agreement.py > benchmarks/hull_agreement.txt

The exit status is 1 when any perimeter gap exceeds 1e-12.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from betapoly.geometry import convex_hull, polygon_area, polygon_perimeter, uniform_hulls
from betapoly.sampler import BetaParams, SeedPolicy, points_from_uniforms, uniform_chunks

CLOUDS = 16_385
PAIR_CLOUDS = 2_000
TRIALS, BATCH, TRIAL_N = 700, 262, 250
BETAS = (-0.99, -0.9, 0.0, 2.0)
RAY_N = 100_000
PERIMETER_GAP = 1e-12


def near_duplicate_clouds(count: int):
    """Angle and radius uniforms of ``count`` clouds with near-duplicate points."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        N = rng.integers(130, 400)
        a = rng.random(N)
        r = rng.random(N) ** 0.1
        k = rng.integers(1, 20)
        i = rng.integers(0, N, k)
        j = rng.integers(0, N, k)
        a[j] = np.nextafter(a[i], 2.0)
        r[j] = rng.random(k) ** 0.05
        yield a, r


def ulp_pair_clouds(count: int):
    """Angle and radius uniforms of ``count`` clouds on the unit circle with ulp-apart angles."""
    rng = np.random.default_rng(16)
    for _ in range(count):
        N = rng.integers(130, 400)
        a = rng.random(N)
        r = 0.5 + 0.5 * rng.random(N)
        k = rng.integers(1, 20)
        i = rng.integers(0, N, k)
        j = rng.integers(0, N, k)
        a[j] = np.nextafter(a[i], 2.0)
        yield a, r


def whole(a, r):
    """A source that yields the uniforms as one chunk."""
    return lambda: [(a, r)]


def gaps(params, samples):
    """``(samples, differ, largest relative perimeter gap, largest area gap)`` of ``(N, sources)`` batches."""
    seen = differ = 0
    perimeter = area = 0.0
    for N, sources in samples:
        for chunks, (keep, _, hull) in zip(sources, uniform_hulls(params, N, sources)):
            a, r = (np.concatenate(u) for u in zip(*chunks()))
            pts = points_from_uniforms(params, a.copy(), r.copy())
            want = convex_hull(pts)
            got = type(want)(tuple(int(keep[i]) for i in hull.vertex_indices))
            seen += 1
            if got != want:
                differ += 1
                p0 = polygon_perimeter(want, pts)
                perimeter = max(perimeter, abs(polygon_perimeter(got, pts) - p0) / p0)
                area = max(area, abs(polygon_area(got, pts) - polygon_area(want, pts)))
    return seen, differ, perimeter, area


def main() -> int:
    clouds = BetaParams(-0.99)
    rows = [
        ("near-duplicate clouds", -0.99, gaps(clouds, (
            (len(r), [whole(a, r)]) for a, r in near_duplicate_clouds(CLOUDS)
        ))),
        ("ulp-apart angle pairs", -0.99, gaps(clouds, (
            (len(r), [whole(a, r)]) for a, r in ulp_pair_clouds(PAIR_CLOUDS)
        ))),
    ]
    policy = SeedPolicy(42)
    for beta in BETAS:
        batches = (
            (TRIAL_N, [
                functools.partial(uniform_chunks, policy, t, TRIAL_N)
                for t in range(first, min(first + BATCH, TRIALS))
            ])
            for first in range(0, TRIALS, BATCH)
        )
        rows.append((f"seeded trials, N = {TRIAL_N}", beta, gaps(BetaParams(beta), batches)))
    ray = (np.full(RAY_N, 0.125), np.random.default_rng(3).random(RAY_N))
    rows.append(("ray", 0.0, gaps(BetaParams(0.0), [(RAY_N, [whole(*ray)])])))
    print("uniform_hulls against convex_hull: samples whose hulls differ, and their largest gaps")
    print("(perimeter relative, area absolute)")
    print()
    print("| input | beta | samples | differ | perimeter gap | area gap |")
    print("|---|---|---|---|---|---|")
    worst = 0.0
    for name, beta, (seen, differ, perimeter, area) in rows:
        print(f"| {name} | {beta:g} | {seen} | {differ} | {perimeter:.2g} | {area:.2g} |")
        worst = max(worst, perimeter)
    return int(worst > PERIMETER_GAP)


if __name__ == "__main__":
    sys.exit(main())
