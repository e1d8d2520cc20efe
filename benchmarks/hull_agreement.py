"""How often the package's hulls of one sample differ from each other and from the monotone chain.

``uniform_hulls`` (the hulls of a batch of trials, given by their uniforms)
and ``convex_hull`` (the hull of a point array) both build their hulls with
``geometry._hulls``, reflex-vertex elimination on x-monotone polygons, each
after its own circle test; they must never differ.  The reference is
Andrew's monotone chain of the whole sample, ``geometry._monotone_chain``,
which builds only the oracle's hulls.  The elimination and the chain both
decide turns with float cross products, so on near-collinear or
near-coincident triples they can keep different vertices.  For each input
set below this script counts the samples whose two entry points' hulls
differ, and those where each differs from the chain, and prints the largest
relative perimeter gap and the largest absolute area gap between an entry
point's hull and the chain's:

* near-duplicate clouds: 16 385 clouds of 130 to 399 points at
  ``beta = -0.99``, with 1 to 19 points moved one ulp of angle uniform
  away from others, at radius uniforms near 1;
* ulp-apart angle pairs: 2 000 clouds of the same sizes at ``beta =
  -0.99`` whose radius uniforms all lie in [1/2, 1), so every radius rounds
  to 1, with 1 to 19 pairs of angle uniforms one ulp apart;
* seeded trials: 700 trials of ``N = 250`` points at each ``beta`` in
  {-0.99, -0.9, 0, 2}, in batches of 262 as ``simulate`` makes them;
* a ray: 10^5 points at one angle uniform, 0.125, at ``beta = 0``.

Run from the repository root (~40 s on a 2-core x86-64 machine):

    PYTHONPATH=src python3 benchmarks/hull_agreement.py > benchmarks/hull_agreement.txt

The exit status is 1 when the two entry points differ on any sample or any
perimeter gap exceeds 1e-12.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from betapoly.geometry import PolygonChain, _monotone_chain, _rotate_min_first, convex_hull
from betapoly.geometry import polygon_area, polygon_perimeter, uniform_hulls
from betapoly.sampler import BetaParams, SeedPolicy, points_from_uniforms, select_uniforms

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
    """The uniforms as a ``uniform_hulls`` selector of all their points.

    ``select(floor)`` returns the indices of the points whose radius
    uniform reaches ``floor`` and copies of their two uniforms.
    """

    def select(floor):
        keep = np.flatnonzero(r >= floor)
        return keep, a[keep], r[keep]

    return select


def gaps(params, samples):
    """Counts and gaps of ``(N, selectors)`` batches, as one table row.

    ``(samples, entry points differ, uniform_hulls differs from the chain,
    convex_hull differs from the chain, largest relative perimeter gap,
    largest area gap)``, the gaps taken between either entry point's hull
    and the chain's.
    """
    seen = apart = 0
    differ = [0, 0]
    perimeter = area = 0.0
    for N, selectors in samples:
        for select, (keep, _, hull) in zip(selectors, uniform_hulls(params, N, selectors)):
            _, a, r = select(0.0)  # every point
            pts = points_from_uniforms(params, a, r)
            got = (PolygonChain(tuple(int(keep[i]) for i in hull.vertex_indices)), convex_hull(pts))
            chain = PolygonChain(tuple(_rotate_min_first(_monotone_chain(pts))))
            seen += 1
            apart += got[0] != got[1]
            p0 = polygon_perimeter(chain, pts)
            for e, entry in enumerate(got):
                if entry != chain:
                    differ[e] += 1
                    perimeter = max(perimeter, abs(polygon_perimeter(entry, pts) - p0) / p0)
                    area = max(area, abs(polygon_area(entry, pts) - polygon_area(chain, pts)))
    return seen, apart, *differ, perimeter, area


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
                functools.partial(select_uniforms, policy, t, TRIAL_N)
                for t in range(first, min(first + BATCH, TRIALS))
            ])
            for first in range(0, TRIALS, BATCH)
        )
        rows.append((f"seeded trials, N = {TRIAL_N}", beta, gaps(BetaParams(beta), batches)))
    ray = (np.full(RAY_N, 0.125), np.random.default_rng(3).random(RAY_N))
    rows.append(("ray", 0.0, gaps(BetaParams(0.0), [(RAY_N, [whole(*ray)])])))
    print("Samples whose hulls differ: uniform_hulls against convex_hull, and each of them")
    print("against the monotone chain of the whole sample, with the largest gaps to the chain")
    print("(perimeter relative, area absolute)")
    print()
    print(
        "| input | beta | samples | uniform_hulls vs convex_hull "
        "| uniform_hulls vs chain | convex_hull vs chain | perimeter gap | area gap |"
    )
    print("|---|---|---|---|---|---|---|---|")
    failed = False
    for name, beta, (seen, apart, uniform, convex, perimeter, area) in rows:
        print(
            f"| {name} | {beta:g} | {seen} | {apart} | {uniform} | {convex} "
            f"| {perimeter:.2g} | {area:.2g} |"
        )
        failed |= apart > 0 or perimeter > PERIMETER_GAP
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
