"""Exact maximum-perimeter / maximum-area sub-polygons of a planar sample.

The maximum of either objective over all vertex subsets of size at most ``k``
is attained on extreme points of the full convex hull: with all other
vertices fixed, the perimeter is convex and the area is affine in a single
vertex, so no interior point can beat a hull point, and enlarging a subset
never decreases either objective.  So ``convex_hull`` drops provably interior
points with a one-pass circle test and runs a monotone chain on the rest, and
``max_kgon`` runs a max-plus program over the ``h`` hull vertices in
``O(h^2 k + h^3 / k^2)``.  The exhaustive subset oracle below validates both.

Degenerate hulls follow the convex-body convention: a segment has perimeter
twice its length and zero area; a single point has both objectives zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Below this size the circle pre-filter costs more than it saves.
_PREFILTER_MIN_POINTS = 128
_PREFILTER_MARGIN = 1e-9  # relative slack on the pre-filter's radius
# Most hull vertices max_kgon takes: its edge-weight tables are h x h.
_MAX_HULL = 4096
_DP_BLOCK = 1 << 18  # most (anchor, predecessor, successor) cells per step


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
    """Indices that can still be hull vertices (one-pass circle test).

    The circle is centred on the bounding-box midpoint ``c``; points strictly
    inside it are interior to the full hull (see ``_inscribed_radius``).
    """
    N = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    c = np.array([0.5 * x.min() + 0.5 * x.max(), 0.5 * y.min() + 0.5 * y.max()])
    d2 = (x - c[0]) ** 2
    d2 += (y - c[1]) ** 2
    far = _farthest(d2)
    radius = _inscribed_radius(pts[far], c, math.sqrt(float(d2[far].max())))
    if radius > 0.0:
        return np.nonzero(d2 >= radius * radius)[0]
    return np.arange(N, dtype=np.int64)


def polar_candidates(r: np.ndarray, points_at) -> np.ndarray:
    """Sorted indices of the points that can be hull vertices, chosen by radius.

    Point ``i`` lies at distance ``r[i]`` from the origin, and
    ``points_at(idx)`` returns the coordinates of points ``idx``; it is
    called only on the ``max(32, 2 sqrt N)`` farthest points, so the others
    never need coordinates.  The circle is centred on the origin; points
    strictly inside it are interior to the full hull (see
    ``_inscribed_radius``).  Below 128 points, or when the origin is not
    strictly inside the far points' hull (a radius of at most 0), all are kept.
    """
    if len(r) < _PREFILTER_MIN_POINTS:
        return np.arange(len(r), dtype=np.int64)
    far = _farthest(r)
    radius = _inscribed_radius(points_at(far), np.zeros(2), float(r[far].max()))
    return np.nonzero(r >= radius)[0]


def _farthest(dist: np.ndarray) -> np.ndarray:
    """Positions of the ``max(32, 2 sqrt N)`` largest entries of ``dist``."""
    kth = len(dist) - max(32, int(2.0 * math.sqrt(len(dist))))
    return np.argpartition(dist, kth)[kth:]


def _inscribed_radius(far: np.ndarray, centre: np.ndarray, reach: float) -> float:
    """Radius of a disk about ``centre`` inside the hull of the points ``far``.

    The hull of ``far`` contains the disk whose radius is the least distance
    from ``centre`` to one of its edge lines; the radius returned is that,
    shrunk by ``_PREFILTER_MARGIN * reach``, where ``reach`` is the largest
    distance of a point of ``far`` from ``centre``, a margin far above
    rounding error.  So a point of the full sample closer to ``centre`` than
    this is interior to the full hull.  The result is not positive when
    ``centre`` is not strictly inside the hull of ``far``.
    """
    ring = far[_monotone_chain(far)]
    if len(ring) < 3:
        return 0.0
    e = np.roll(ring, -1, axis=0) - ring  # raw coordinates: short edges stay accurate
    rel = ring - centre
    radius = np.min((rel[:, 0] * e[:, 1] - rel[:, 1] * e[:, 0]) / np.hypot(e[:, 0], e[:, 1]))
    return float(radius) - _PREFILTER_MARGIN * reach


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


def _chain_result(chain: PolygonChain, pts: np.ndarray, objective: Objective) -> UMaxResult:
    value = _objective_value(chain, pts, objective)
    return UMaxResult(value, chain.vertex_indices, len(chain.vertex_indices))


def max_kgon(hull: PolygonChain, points, k: int, objective: Objective) -> UMaxResult:
    """Best polygon using at most ``k`` hull vertices.

    For ``k >= h`` that is the hull itself.  Otherwise, on a strictly convex
    hull, the best polygon uses exactly ``k`` vertices, and its value sums
    start-free weights of its cyclic edges ``u -> v``: ``|H_u H_v|``
    (perimeter) or the shoelace term ``cross(H_u, H_v) / 2`` (area).  A
    max-plus pass finds the best k-gon through hull position 0,
    ``p_0 < ... < p_{k-1}``, in ``O(h^2 k)``.  Some optimal k-gon intersperses
    it (Boyce, Dobkin, Drysdale & Guibas 1985): its ``j``-th vertex lies on
    the closed arc ``[p_{i+j}, p_{i+j+1}]``.  With ``i`` the shortest arc, one
    more pass from all anchors on that arc at once, each layer kept to its
    arc, finds it in ``O(h^3 / k^2)``.

    On exact float ties the cycle is an optimal one, but not always the
    lexicographically smallest: each anchor keeps only its first maximal
    predecessor at every layer, and the first anchor with the best total wins.

    Raises:
        ValueError: if ``k < 2``, or if ``k < h`` and ``h > _MAX_HULL``.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    pts = as_points_array(points)
    h = len(hull.vertex_indices)
    if hull.degenerate or h < 3 or k >= h:
        return _chain_result(hull, pts, objective)
    if h > _MAX_HULL:
        raise ValueError(
            f"the hull has h = {h} vertices; max_kgon takes at most {_MAX_HULL} "
            f"(its tables have h x h entries)"
        )
    idx = np.asarray(hull.vertex_indices, dtype=np.int64)
    if objective is Objective.PERIMETER:
        diff = pts[idx, None, :] - pts[None, idx, :]
        weight = np.hypot(diff[..., 0], diff[..., 1])
    else:  # any origin gives a closed cycle the same shoelace sum; this one keeps terms small
        rel = pts[idx] - pts[idx[0]]
        weight = 0.5 * (np.outer(rel[:, 0], rel[:, 1]) - np.outer(rel[:, 1], rel[:, 0]))

    _, rooted = _max_plus(weight, np.zeros(1, dtype=np.int64), [np.arange(1, h)] * (k - 1))
    p = rooted(0)
    i = int(np.argmin(np.diff(p + [h])))
    arcs = [p[(i + j) % k] + h * ((i + j) // k) for j in range(k + 1)]
    layers = [np.arange(arcs[j], arcs[j + 1] + 1) for j in range(k)]
    totals, trace = _max_plus(weight, layers[0], layers[1:])
    cycle = _rotate_min_first(tuple(int(idx[q % h]) for q in trace(int(np.argmax(totals)))))
    return _chain_result(PolygonChain(cycle, degenerate=k < 3), pts, objective)


def _max_plus(weight: np.ndarray, anchors: np.ndarray, layers: list[np.ndarray]):
    """Best closed chains ``anchor -> layers[0] -> ... -> layers[-1] -> anchor``.

    Positions are unwrapped hull positions (``weight`` is read modulo ``h``),
    strictly increasing along a chain and below ``anchor + h`` at its end.
    Anchors go in blocks of at most ``_DP_BLOCK`` cells per step.  Returns
    each anchor's best total (``-inf`` without a chain) and ``trace(t)``,
    the positions of anchor ``t``'s best chain.
    """
    h = len(weight)
    pairs = list(zip(layers, layers[1:]))
    block = max(1, _DP_BLOCK // max([len(u) * len(v) for u, v in pairs], default=1))
    totals, tables = [], []
    for start in range(0, len(anchors), block):
        a = anchors[start : start + block, None]
        dp = np.where(a < layers[0], weight[a % h, layers[0] % h], -np.inf)
        args = []
        for u, v in pairs:
            step = np.where(u[:, None] < v, weight[u[:, None] % h, v % h], -np.inf)
            cand = dp[:, :, None] + step
            args.append(cand.argmax(axis=1))
            dp = cand.max(axis=1)
        dp += np.where(layers[-1] < a + h, weight[layers[-1] % h, a % h], -np.inf)
        args.append(dp.argmax(axis=1))
        totals.append(dp.max(axis=1))
        tables.append(args)
    tables = [np.concatenate(t) for t in zip(*tables)]

    def trace(t: int) -> list[int]:
        v = tables[-1][t]
        positions = [int(anchors[t]), int(layers[-1][v])]
        for j in range(len(pairs) - 1, -1, -1):
            v = tables[j][t, v]
            positions.insert(1, int(layers[j][v]))
        return positions

    return np.concatenate(totals), trace


def umax(points, n: int, objective: Objective) -> UMaxResult:
    """Exact maximum of the objective over all subsets of at most ``n`` points.

    Raises:
        ValueError: if fewer than ``n`` points are supplied, ``n < 2``, or
        the hull is too large for ``max_kgon``.
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
