"""Exact maximum-perimeter / maximum-area sub-polygons of a planar sample.

The maximum of either objective over all vertex subsets of size at most ``k``
is attained on extreme points of the full convex hull: with all other
vertices fixed, the perimeter is convex and the area is affine in a single
vertex, so no interior point can beat a hull point, and enlarging a subset
never decreases either objective.  The search therefore reduces to a dynamic
program over the hull in counterclockwise order (cost ``O(h^3 * k)`` for hull
size ``h``), validated by the exhaustive subset oracle below.

Degenerate hulls follow the convex-body convention: a segment has perimeter
twice its length and zero area; a single point has both objectives zero.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Hull sizes beyond this make the O(h^3) program expensive; warn, don't fail.
_HULL_SIZE_WARN = 2000
# Below this size the extreme-octagon pre-filter costs more than it saves.
_PREFILTER_MIN_POINTS = 128


class Objective(enum.Enum):
    """Which polygon functional the maximization targets."""

    PERIMETER = "perimeter"
    AREA = "area"

    @classmethod
    def parse(cls, name: str) -> "Objective":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown objective {name!r}; expected 'perimeter' or 'area'"
            ) from None


@dataclass(frozen=True)
class PolygonChain:
    """Vertices of a convex polygon as indices into a point array, CCW order.

    ``degenerate`` marks chains of fewer than 3 distinct points (a point or a
    segment), for which the convex-body conventions above apply.
    """

    vertex_indices: tuple[int, ...]
    degenerate: bool = False


@dataclass(frozen=True)
class UMaxResult:
    """Best subset polygon: objective value plus its vertices.

    ``vertex_indices`` are indices into the input sample, in counterclockwise
    cyclic order rotated so the smallest index comes first.
    """

    value: float
    vertex_indices: tuple[int, ...]
    vertex_count: int


def as_points_array(points) -> np.ndarray:
    """Coerce a point collection to a float64 array of shape (N, 2)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError(f"expected a nonempty (N, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _prefilter(pts: np.ndarray) -> np.ndarray:
    """Indices that can still be hull vertices (extreme-octagon test).

    Points strictly inside the convex polygon spanned by the extremes of
    x, y, x+y and x-y cannot be extreme themselves; boundary ties are kept.
    """
    x, y = pts[:, 0], pts[:, 1]
    keys = (x, y, x + y, x - y)
    ext: set[int] = set()
    for k in keys:
        ext.add(int(np.argmin(k)))
        ext.add(int(np.argmax(k)))
    ext_idx = np.fromiter(sorted(ext), dtype=np.int64)
    octagon = _monotone_chain(pts[ext_idx])
    if len(octagon) < 3:
        return np.arange(len(pts), dtype=np.int64)
    poly = pts[ext_idx[octagon]]
    inside = np.ones(len(pts), dtype=bool)
    for i in range(len(poly)):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % len(poly)]
        inside &= (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0.0
    return np.nonzero(~inside)[0]


def _monotone_chain(pts: np.ndarray) -> list[int]:
    """CCW hull of lexicographically pre-deduplicated points; returns positions.

    Strict cross-product test: collinear points are dropped, so the output is
    strictly convex whenever it has 3 or more vertices.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    sp = pts[order]
    keep = np.ones(len(sp), dtype=bool)
    keep[1:] = (sp[1:, 0] != sp[:-1, 0]) | (sp[1:, 1] != sp[:-1, 1])
    order = order[keep]
    xs = pts[order, 0].tolist()
    ys = pts[order, 1].tolist()
    m = len(order)
    if m == 1:
        return [int(order[0])]

    def half(indices) -> list[int]:
        out: list[int] = []
        for i in indices:
            while len(out) >= 2 and (
                _cross(xs[out[-2]], ys[out[-2]], xs[out[-1]], ys[out[-1]], xs[i], ys[i])
                <= 0.0
            ):
                out.pop()
            out.append(i)
        return out

    lower = half(range(m))
    upper = half(range(m - 1, -1, -1))
    hull_pos = lower[:-1] + upper[:-1]
    return [int(order[i]) for i in hull_pos]


def convex_hull(points) -> PolygonChain:
    """Counterclockwise convex hull with collinear points removed.

    Returns a degenerate chain of 1 or 2 indices when the input has fewer
    than 3 distinct extreme points.  Ties in coordinates keep the smallest
    original index; the chain is rotated so its smallest index comes first.
    """
    pts = as_points_array(points)
    if len(pts) >= _PREFILTER_MIN_POINTS:
        cand = _prefilter(pts)
        hull_idx = [int(cand[i]) for i in _monotone_chain(pts[cand])]
    else:
        hull_idx = _monotone_chain(pts)
    hull_idx = _rotate_min_first(hull_idx)
    return PolygonChain(tuple(hull_idx), degenerate=len(hull_idx) < 3)


def _rotate_min_first(cycle):
    """The same cyclic sequence (list or tuple), rotated to start at its minimum."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def polygon_perimeter(chain: PolygonChain, points) -> float:
    """Cyclic edge-length sum; a 2-point chain counts its segment twice."""
    pts = as_points_array(points)
    idx = chain.vertex_indices
    if len(idx) < 2:
        return 0.0
    if len(idx) == 2:
        a, b = pts[idx[0]], pts[idx[1]]
        return 2.0 * math.hypot(b[0] - a[0], b[1] - a[1])
    total = 0.0
    for i in range(len(idx)):
        a = pts[idx[i]]
        b = pts[idx[(i + 1) % len(idx)]]
        total += math.hypot(b[0] - a[0], b[1] - a[1])
    return total


def polygon_area(chain: PolygonChain, points) -> float:
    """Signed shoelace area: positive for CCW chains, 0 for degenerate ones."""
    pts = as_points_array(points)
    idx = chain.vertex_indices
    if len(idx) < 3:
        return 0.0
    total = 0.0
    for i in range(len(idx)):
        ax, ay = pts[idx[i]]
        bx, by = pts[idx[(i + 1) % len(idx)]]
        total += ax * by - ay * bx
    return 0.5 * total


def hull_functional(tuples, objective: Objective) -> np.ndarray:
    """Objective of the convex hull of each tuple: ``(m, n, 2)`` -> ``(m,)``.

    Batched counterpart of ``convex_hull`` + ``polygon_perimeter`` /
    ``polygon_area`` with the same conventions (duplicates count once,
    collinear points are dropped, a segment has twice its length as
    perimeter).  For ``n != 3`` an unordered pair ``{i, j}`` of distinct
    first-occurrence points is a hull edge iff every other point lies on one
    closed side of line ``ij`` and every point on that line lies within the
    segment; the perimeter sums edge lengths (twice when all points are
    collinear) and the area sums ``cross(p_i, p_j) / 2`` oriented by that
    side.  ``O(n^3)`` per tuple, vectorised across tuples.

    Raises:
        ValueError: if ``tuples`` is not an ``(m, n, 2)`` array with ``n >= 1``.
    """
    pts = np.asarray(tuples, dtype=float)
    if pts.ndim != 3 or pts.shape[1] == 0 or pts.shape[2] != 2:
        raise ValueError(f"expected an (m, n, 2) array of tuples, got shape {pts.shape}")
    if pts.shape[1] == 3:
        # Every pair of a triple is a hull edge, so the hull is closed form;
        # for degenerate triples the two collinear legs add up to twice the
        # span.
        d01 = np.hypot(pts[:, 0, 0] - pts[:, 1, 0], pts[:, 0, 1] - pts[:, 1, 1])
        d12 = np.hypot(pts[:, 1, 0] - pts[:, 2, 0], pts[:, 1, 1] - pts[:, 2, 1])
        d20 = np.hypot(pts[:, 2, 0] - pts[:, 0, 0], pts[:, 2, 1] - pts[:, 0, 1])
        if objective is Objective.PERIMETER:
            return d01 + d12 + d20
        ux = pts[:, 1, 0] - pts[:, 0, 0]
        uy = pts[:, 1, 1] - pts[:, 0, 1]
        vx = pts[:, 2, 0] - pts[:, 0, 0]
        vy = pts[:, 2, 1] - pts[:, 0, 1]
        return 0.5 * np.abs(ux * vy - uy * vx)

    # Point-major layout: each array below is a stack of n contiguous rows,
    # one per point, so every reduction over a tuple runs row by row.
    x = np.ascontiguousarray(pts[..., 0].T)
    y = np.ascontiguousarray(pts[..., 1].T)
    n, m = x.shape
    first = np.ones((n, m), dtype=bool)  # no earlier copy of the same point
    for i in range(n):
        for k in range(i):
            first[i] &= (x[i] != x[k]) | (y[i] != y[k])
    total = np.zeros(m)
    for i in range(n):
        rx = x - x[i]
        ry = y - y[i]
        for j in range(i + 1, n):
            dx, dy = rx[j], ry[j]
            cross = dx * ry - dy * rx
            left = cross.max(axis=0) > 0.0
            right = cross.min(axis=0) < 0.0
            edge = first[i] & first[j] & ~(left & right)
            # A third point on line ij must lie within the segment.  Such
            # points are rare in floating point, so only those tuples pay.
            on_line = cross == 0.0
            on_line[i] = on_line[j] = False
            odd = np.nonzero(edge & on_line.any(axis=0))[0]
            if odd.size:
                ox, oy = dx[odd], dy[odd]
                along = ox * rx[:, odd] + oy * ry[:, odd]
                beyond = (along < 0.0) | (along > ox * ox + oy * oy)
                edge[odd] = ~np.any(on_line[:, odd] & beyond, axis=0)
            if objective is Objective.PERIMETER:
                w = np.hypot(dx, dy) * np.where(left | right, 1.0, 2.0)
            else:
                w = 0.5 * (left.astype(float) - right) * (x[i] * y[j] - y[i] * x[j])
            total += np.where(edge, w, 0.0)
    return total


def _objective_value(chain: PolygonChain, pts: np.ndarray, objective: Objective) -> float:
    if objective is Objective.PERIMETER:
        return polygon_perimeter(chain, pts)
    return polygon_area(chain, pts)


def _degenerate_result(
    hull: PolygonChain, pts: np.ndarray, objective: Objective
) -> UMaxResult:
    idx = hull.vertex_indices
    value = _objective_value(hull, pts, objective)
    return UMaxResult(value=value, vertex_indices=idx, vertex_count=len(idx))


def max_kgon(hull: PolygonChain, points, k: int, objective: Objective) -> UMaxResult:
    """Best polygon using at most ``k`` hull vertices.

    Dynamic program: anchor each candidate subset at its first hull position,
    extend chains vertex by vertex in hull order (a max-plus recurrence), and
    close the cycle at every length from 2 to ``k``.  On exact float ties the
    cycle is an optimal one, but not always the lexicographically smallest:
    each anchor and length keeps only the first maximal predecessor and
    endpoint, and only the cycles that survive this are compared.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    pts = as_points_array(points)
    if hull.degenerate or len(hull.vertex_indices) < 3:
        return _degenerate_result(hull, pts, objective)

    idx = np.asarray(hull.vertex_indices, dtype=np.int64)
    h = len(idx)
    if h > _HULL_SIZE_WARN:
        warnings.warn(
            f"hull has {h} vertices; the O(h^3) subset program will be slow",
            RuntimeWarning,
            stacklevel=2,
        )
    H = pts[idx]
    kk = min(k, h)
    if objective is Objective.PERIMETER:
        diff = H[:, None, :] - H[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])

    best_val = -math.inf
    best_cycle: tuple[int, ...] | None = None

    for s in range(h - 1):
        nq = h - s
        if objective is Objective.PERIMETER:
            weight = dist[s:, s:]
            close = weight[0]
        else:
            rel = H[s:] - H[s]
            weight = 0.5 * (
                np.outer(rel[:, 0], rel[:, 1]) - np.outer(rel[:, 1], rel[:, 0])
            )
            close = None
        masked = weight.copy()
        masked[np.tril_indices(nq)] = -np.inf

        dp = np.full(nq, -np.inf)
        dp[0] = 0.0
        parents: list[np.ndarray] = []
        for m in range(2, kk + 1):
            cand = dp[:, None] + masked
            arg = np.argmax(cand, axis=0)
            dp = cand[arg, np.arange(nq)]
            parents.append(arg)

            totals = dp + close if close is not None else dp.copy()
            totals[0] = -np.inf
            w = int(np.argmax(totals))
            val = float(totals[w])
            if not math.isfinite(val):
                continue
            if val > best_val or val == best_val:
                positions = _reconstruct(parents, m, w)
                cycle = _rotate_min_first(tuple(int(idx[s + p]) for p in positions))
                if val > best_val or (best_cycle is not None and cycle < best_cycle):
                    best_val = val
                    best_cycle = cycle

    assert best_cycle is not None
    chain = PolygonChain(best_cycle, degenerate=len(best_cycle) < 3)
    value = _objective_value(chain, pts, objective)
    return UMaxResult(value=value, vertex_indices=best_cycle, vertex_count=len(best_cycle))


def _reconstruct(parents: list[np.ndarray], m: int, w: int) -> list[int]:
    positions = [w]
    cur = w
    for t in range(m - 2, -1, -1):
        cur = int(parents[t][cur])
        positions.append(cur)
    positions.reverse()
    return positions


def umax(points, n: int, objective: Objective) -> UMaxResult:
    """Exact maximum of the objective over all subsets of at most ``n`` points.

    Raises:
        ValueError: if fewer than ``n`` points are supplied or ``n < 2``.
    """
    pts = as_points_array(points)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if len(pts) < n:
        raise ValueError(f"need at least n={n} points, got {len(pts)}")
    hull = convex_hull(pts)
    return max_kgon(hull, pts, n, objective)


def umax_bruteforce(points, n: int, objective: Objective) -> UMaxResult:
    """Reference semantics: exhaustive enumeration of all C(N, n) subsets.

    Guarded to C(N, n) <= 10^6.  Used to validate :func:`umax`; the two must
    agree because every subset's hull uses only extreme points of the full
    hull and larger subsets never score lower.
    """
    from itertools import combinations

    pts = as_points_array(points)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if len(pts) < n:
        raise ValueError(f"need at least n={n} points, got {len(pts)}")
    total = math.comb(len(pts), n)
    if total > 10**6:
        raise ValueError(f"C({len(pts)}, {n}) = {total} exceeds the 10^6 guard")

    best_val = -math.inf
    best_cycle: tuple[int, ...] | None = None
    for combo in combinations(range(len(pts)), n):
        sub = pts[list(combo)]
        local = convex_hull(sub)
        cycle = _rotate_min_first(tuple(combo[i] for i in local.vertex_indices))
        chain = PolygonChain(cycle, degenerate=local.degenerate)
        val = _objective_value(chain, pts, objective)
        if val > best_val or (val == best_val and best_cycle is not None and cycle < best_cycle):
            best_val = val
            best_cycle = cycle
    assert best_cycle is not None
    return UMaxResult(value=best_val, vertex_indices=best_cycle, vertex_count=len(best_cycle))
