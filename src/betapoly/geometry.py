"""Exact maximum-perimeter / maximum-area sub-polygons of a planar sample.

The maximum of either objective over all vertex subsets of size at most ``k``
is attained on extreme points of the full convex hull: with all other
vertices fixed, the perimeter is convex and the area is affine in a single
vertex, so no interior point can beat a hull point, and enlarging a subset
never decreases either objective.  So ``convex_hull`` and ``uniform_hull``
(for points given by their sampling uniforms) drop provably interior points
with one circle test, ``_circle_hull``, whose far points' hull is at large
``N`` the hull itself, and ``max_kgon`` runs a max-plus program over the
``h`` hull vertices in ``O(h^2 k + h^3 / k^2)``.  The exhaustive subset
oracle below validates both.

Degenerate hulls follow the convex-body convention: a segment has perimeter
twice its length and zero area; a single point has both objectives zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .sampler import BetaParams, check_vertex_count, points_from_uniforms
from .sampler import radius_uniform_floor, select_uniforms

# Below this size the circle test of _circle_hull costs more than it saves.
_CIRCLE_MIN_POINTS = 128
_CIRCLE_MARGIN = 1e-9  # relative slack on _inscribed_radius
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
    """Vertices of a convex polygon as indices into a point array, CCW order."""

    vertex_indices: tuple[int, ...]

    @property
    def degenerate(self) -> bool:
        """Fewer than 3 vertices (a point or a segment): the convex-body conventions apply."""
        return len(self.vertex_indices) < 3


@dataclass(frozen=True)
class UMaxResult:
    """Best subset polygon: objective value plus its vertices.

    ``vertex_indices`` are indices into the input sample, in counterclockwise
    cyclic order rotated so the smallest index comes first.
    """

    value: float
    vertex_indices: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_indices)


def as_points_array(points) -> np.ndarray:
    """Coerce a point collection to a float64 array of shape (N, 2)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError(f"expected a nonempty (N, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _far_count(N: int) -> int:
    """How many far points a circle test of ``N`` points builds its hull from."""
    return max(32, int(2.0 * math.sqrt(N)))


def _circle_hull(select, far_floor: float, centre: np.ndarray, key_floor):
    """One circle test: the kept indices, their coordinates and their hull.

    Each point has a key that grows with its distance from ``centre``, and
    no point with ``key < key_floor(radius)`` reaches ``radius``;
    ``select(floor)`` gives the indices (sorted) and coordinates of the
    points with ``key >= floor``.  The points with ``key >= far_floor`` form
    the far set, and the disk of ``_inscribed_radius`` lies inside their
    hull.  If that disk's key floor is at least ``far_floor``, the far set
    holds every possible vertex and every exact copy of one, so its hull is
    the hull; otherwise the chain runs again on the points above the floor.
    The hull is positions into the kept indices, and mapped through them it
    is the monotone chain of every point (copies keep the smallest).
    """
    keep, pts = select(far_floor)
    ring = _monotone_chain(pts)
    floor = key_floor(_inscribed_radius(pts[ring], centre))
    if floor < far_floor:
        keep, pts = select(floor)
        ring = _monotone_chain(pts)
    return keep, pts, ring


def _inscribed_radius(ring: np.ndarray, centre: np.ndarray) -> float:
    """Radius of a disk about ``centre`` inside the convex polygon ``ring`` (CCW).

    The polygon contains the disk whose radius is the least distance from
    ``centre`` to one of its edge lines; the radius returned is that, shrunk
    by ``_CIRCLE_MARGIN`` times the largest distance of a vertex from
    ``centre``, a margin far above rounding error.  So a point closer to
    ``centre`` than this is interior to the hull of any set holding
    ``ring``.  The result is not positive when ``centre`` is not strictly
    inside a polygon of 3 or more vertices.
    """
    if len(ring) < 3:
        return 0.0
    e = np.roll(ring, -1, axis=0) - ring  # raw coordinates: short edges stay accurate
    rel = ring - centre
    radius = np.min((rel[:, 0] * e[:, 1] - rel[:, 1] * e[:, 0]) / np.hypot(e[:, 0], e[:, 1]))
    reach = np.hypot(rel[:, 0], rel[:, 1]).max()
    return float(radius) - _CIRCLE_MARGIN * float(reach)


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
            bx, by = xs[i], ys[i]
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                ox, oy = xs[o], ys[o]
                if (xs[a] - ox) * (by - oy) - (ys[a] - oy) * (bx - ox) <= 0.0:
                    out.pop()
                else:
                    break
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
    From ``_CIRCLE_MIN_POINTS`` points on, ``_circle_hull`` runs on the
    distances from the bounding-box midpoint (each its own key floor), with
    the ``_far_count`` farthest points as far set.
    """
    pts = as_points_array(points)
    if len(pts) < _CIRCLE_MIN_POINTS:
        return PolygonChain(tuple(_rotate_min_first(_monotone_chain(pts))))
    x, y = pts[:, 0], pts[:, 1]
    c = np.array([0.5 * x.min() + 0.5 * x.max(), 0.5 * y.min() + 0.5 * y.max()])
    dist = (x - c[0]) ** 2
    dist += (y - c[1]) ** 2
    np.sqrt(dist, out=dist)
    kth = len(dist) - _far_count(len(dist))

    def select(floor):
        keep = np.flatnonzero(dist >= floor)
        return keep, pts[keep]

    keep, _, ring = _circle_hull(select, np.partition(dist, kth)[kth], c, float)
    return PolygonChain(tuple(_rotate_min_first([int(keep[i]) for i in ring])))


def uniform_hull(
    params: BetaParams, angle_u, radius_u
) -> tuple[np.ndarray, np.ndarray, PolygonChain]:
    """Hull of the points that ``points_from_uniforms`` makes of two uniform blocks.

    The blocks are arrays or, as ``sampler.uniform_blocks`` gives them
    for large trials, ``sampler.UniformStream``s; ``select_uniforms`` reads
    either a chunk at a time.  A radius increases with its uniform, so
    ``_circle_hull`` runs about the origin on ``radius_u``: the far set is
    ``u >= 1 - _far_count(N) / N`` (every point below
    ``_CIRCLE_MIN_POINTS``), a threshold known before any chunk is read,
    and a radius's key floor is ``sampler.radius_uniform_floor``.  The
    blocks are read a second time, which replays a stream, only when the far
    set falls short.  Only the points a read selects get a radius, an angle
    and coordinates: every point when the origin is not strictly inside the
    far set's hull.  Array blocks are left as they are.

    Returns the kept indices (sorted), their coordinates, which are the rows
    of ``points_from_uniforms(params, angle_u, radius_u)`` at those
    indices bit for bit (the map is elementwise), and their hull as
    positions into the kept points.  Mapped through the kept indices, that
    hull is ``convex_hull`` of the whole sample.
    """
    N = len(radius_u)
    far_floor = 1.0 - _far_count(N) / N if N >= _CIRCLE_MIN_POINTS else -math.inf

    def select(floor):
        keep, a, r = select_uniforms(angle_u, radius_u, floor)
        return keep, points_from_uniforms(params, a, r)

    floor = partial(radius_uniform_floor, params)
    keep, pts, ring = _circle_hull(select, far_floor, np.zeros(2), floor)
    return keep, pts, PolygonChain(tuple(_rotate_min_first(ring)))


def _rotate_min_first(cycle):
    """The same cyclic sequence (list or tuple), rotated to start at its minimum."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def polygon_perimeter(chain: PolygonChain, points) -> float:
    """Cyclic edge-length sum; a 2-point chain counts its segment twice."""
    pts = as_points_array(points)
    idx = chain.vertex_indices
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


def _chain_result(chain: PolygonChain, pts: np.ndarray, objective: Objective) -> UMaxResult:
    measure = polygon_perimeter if objective is Objective.PERIMETER else polygon_area
    return UMaxResult(measure(chain, pts), chain.vertex_indices)


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
        ValueError: if ``k`` is not an integer ``>= 2``, or if ``k < h`` and
        ``h > _MAX_HULL``.
    """
    check_vertex_count(k)
    pts = as_points_array(points)
    h = len(hull.vertex_indices)
    if hull.degenerate or k >= h:
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
    return _chain_result(PolygonChain(cycle), pts, objective)


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
        ValueError: if ``n`` is not an integer ``>= 2``, fewer than ``n``
        points are supplied, or the hull is too large for ``max_kgon``.
    """
    pts = as_points_array(points)
    check_vertex_count(n)
    if len(pts) < n:
        raise ValueError(f"need at least n={n} points, got {len(pts)}")
    return max_kgon(convex_hull(pts), pts, n, objective)


def umax_bruteforce(points, n: int, objective: Objective) -> UMaxResult:
    """Reference semantics: exhaustive enumeration of all C(N, n) subsets.

    Guarded to C(N, n) <= 10^6.  Used to validate :func:`umax`; the two must
    agree because every subset's hull uses only extreme points of the full
    hull and larger subsets never score lower.
    """
    from itertools import combinations

    pts = as_points_array(points)
    check_vertex_count(n)
    if len(pts) < n:
        raise ValueError(f"need at least n={n} points, got {len(pts)}")
    total = math.comb(len(pts), n)
    if total > 10**6:
        raise ValueError(f"C({len(pts)}, {n}) = {total} exceeds the 10^6 guard")

    best: UMaxResult | None = None
    for combo in combinations(range(len(pts)), n):
        local = convex_hull(pts[list(combo)])
        cycle = _rotate_min_first(tuple(combo[i] for i in local.vertex_indices))
        res = _chain_result(PolygonChain(cycle), pts, objective)
        if best is None or res.value > best.value or (
            res.value == best.value and cycle < best.vertex_indices
        ):
            best = res
    assert best is not None
    return best
