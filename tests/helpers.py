"""Shared test helpers: oracles, a draw counter and an array selector.

The oracles are a high-precision gamma evaluation, generic bisection and
the monotone chain's hull, which no production hull runs.
"""

from __future__ import annotations

from collections import defaultdict
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from betapoly.geometry import PolygonChain, _monotone_chain, _rotate_min_first
from betapoly.sampler import SeedPolicy


def oracle_K(n: int, beta: float, dps: int = 50) -> float:
    """50-digit evaluation of the limit-law constant K_n.

    Independent of the library path: direct mpmath gamma products instead of
    summed double-precision log-gammas.
    """
    with mp.workdps(dps):
        b = mp.mpf(beta)
        num = mp.mpf(2) ** ((b + mp.mpf(1) / 2) * n + mp.mpf(1) / 2) * mp.gamma(b + 2) ** n
        den = (
            mp.pi ** (mp.mpf(n - 1) / 2)
            * mp.factorial(n)
            * mp.gamma((b + mp.mpf(3) / 2) * n + mp.mpf(1) / 2)
        )
        return float(num / den)


def chain_hull(pts: np.ndarray) -> PolygonChain:
    """``pts``' hull by Andrew's monotone chain, in ``convex_hull``'s vertex order."""
    return PolygonChain(tuple(_rotate_min_first(_monotone_chain(pts))))


def bisect_inverse(f, target: float, lo: float, hi: float, iters: int = 200) -> float:
    """Solve f(x) = target for monotone f on [lo, hi] by plain bisection."""
    flo = f(lo)
    fhi = f(hi)
    if not (min(flo, fhi) <= target <= max(flo, fhi)):
        raise ValueError("target not bracketed")
    increasing = fhi >= flo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _CountingGenerator:
    """A generator that records the size of each ``random`` request."""

    def __init__(self, rng, requests):
        self._rng, self._requests = rng, requests

    def random(self, size):
        self._requests.append(size)
        return self._rng.random(size)


def count_draws(monkeypatch) -> SimpleNamespace:
    """Patch ``SeedPolicy.trial_generator`` to record its generators and draws.

    Returns a namespace whose ``requests[stream]`` lists the size of each
    ``random`` request on that stream's generators, in order, and whose
    ``generators`` lists the ``(stream, skip)`` of each generator made.
    """
    log = SimpleNamespace(requests=defaultdict(list), generators=[])
    make = SeedPolicy.trial_generator

    def counting(self, trial_index, skip=0):
        log.generators.append((trial_index, skip))
        return _CountingGenerator(make(self, trial_index, skip), log.requests[trial_index])

    monkeypatch.setattr(SeedPolicy, "trial_generator", counting)
    return log


def selector(angle_u, radius_u):
    """Two uniform blocks as a ``uniform_hulls`` selector.

    ``select(floor)`` returns the indices of the points whose radius
    uniform reaches ``floor`` and copies of their two uniforms.
    """

    def select(floor):
        keep = np.flatnonzero(radius_u >= floor)
        return keep, angle_u[keep], radius_u[keep]

    return select
