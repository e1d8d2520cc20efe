"""Exact maximum-perimeter / maximum-area sub-polygons of a planar sample.

The maximum of either objective over all vertex subsets of size at most ``k``
is attained on extreme points of the full convex hull: with all other
vertices fixed, the perimeter is convex and the area is affine in a single
vertex, so no interior point can beat a hull point, and enlarging a subset
never decreases either objective.  So ``convex_hull`` and ``uniform_hulls``
(for the points of many trials given by their sampling uniforms) drop
provably interior points with one circle test, whose far points' hull is
most often the hull itself (``_far_count``: ``3 sqrt(N)`` far points below
10 000, ``2 sqrt(N)`` from there).  Both build their hulls with
``_hulls``, one reflex-vertex elimination on the monotone chain's
``(x, y)`` order (``_monotone_rings``) for many point sets at once;
``uniform_hulls`` runs the test for a whole batch of trials at once.  The
monotone chain itself (``_monotone_chain``) builds only the oracle's hulls.
``max_kgon`` runs a max-plus program over the ``h`` hull vertices: a pass
through one vertex in ``O(h^2 k)``, then a bisection over the anchors of
one arc, ``O(h^2 / k)`` when the chains of neighbouring anchors spread
evenly.  ``max_kgons`` runs that program for many hulls at once, stacked
into one array per DP layer, with the cycles of one hull at a time;
``max_kgon`` is its one-hull call.  The exhaustive subset oracle below
validates both.  ``threshold_radius``
bounds how far in a vertex of a triangle scoring a given value can lie, so
the tail probe scores only the triples that can reach it.

Degenerate hulls follow the convex-body convention: a segment has perimeter
twice its length and zero area; a single point has both objectives zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .sampler import BetaParams, check_vertex_count, points_from_uniforms, radius_uniform_floor

_CIRCLE_MARGIN = 1e-9  # relative slack on the radius of _inscribed_radii
# Most hull vertices max_kgon takes: its rooted pass costs O(h^2 k) time.
_MAX_HULL = 4096
_DP_BLOCK = 1 << 18  # most (anchor, predecessor, successor) cells per DP tile
_DP_LEAF = 16  # most anchors the second pass solves as one node; more are bisected
_RADIUS_MARGIN = 2.0**-32  # relative slack of threshold_radius's certificate
_BISECTIONS = 48  # halvings of each bisection in threshold_radius


class Objective(enum.Enum):
    """Which polygon functional the maximization targets."""

    PERIMETER = "perimeter"
    AREA = "area"

    @classmethod
    def parse(cls, objective) -> "Objective":
        """A member as is, or the member its name gives (case and outer blanks ignored)."""
        try:
            return objective if isinstance(objective, cls) else cls(objective.strip().lower())
        except (AttributeError, ValueError):
            raise ValueError(
                f"unknown objective {objective!r}; expected 'perimeter' or 'area'"
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
    """How many far points a circle test of ``N`` points builds its hull from.

    Any count gives the same hull; it only decides how often a second hull
    is built, on a widened set.  Below 10 000 points ``2 sqrt(N)`` far
    points miss the hull in most trials at ``beta = 0`` (96% at 250, 69% at
    4 000), and ``3 sqrt(N)`` in 37% and 3%; from 10 000 on the smaller set
    is as fast or faster.
    """
    return max(32, int((3.0 if N < 10_000 else 2.0) * math.sqrt(N)))


def _inscribed_radii(rings: np.ndarray, nxt: np.ndarray, first: np.ndarray, centre) -> np.ndarray:
    """Radius of a disk about ``centre`` inside each convex ring (CCW) of 3 or more vertices.

    Ring ``k`` is the rows from ``first[k]`` to the next start, and ``nxt``
    gives each row's next vertex in its ring.  The ring contains the disk
    whose radius is the least distance from ``centre`` to one of its edge
    lines; the radius returned is that, shrunk by ``_CIRCLE_MARGIN`` times
    the largest distance of a vertex from ``centre``, a margin far above
    rounding error.  So a point closer to ``centre`` than this is interior
    to the hull of any set holding the ring.  The result is not positive
    when ``centre`` is not strictly inside the ring.  Every edge and
    distance is computed row by row, so each radius is the same double as
    for its ring alone, from any starting vertex.
    """
    e = rings[nxt] - rings  # raw coordinates: short edges stay accurate
    rel = rings - centre
    dist = (rel[:, 0] * e[:, 1] - rel[:, 1] * e[:, 0]) / np.hypot(e[:, 0], e[:, 1])
    reach = np.hypot(rel[:, 0], rel[:, 1])
    return np.minimum.reduceat(dist, first) - _CIRCLE_MARGIN * np.maximum.reduceat(reach, first)


def _monotone_chain(pts: np.ndarray) -> list[int]:
    """Andrew's monotone chain: CCW hull positions of ``pts``, from the lexicographic minimum.

    Later copies of equal points are left out.  Strict cross-product test:
    collinear points are dropped, so the output is strictly convex whenever
    it has 3 or more vertices.  It builds the oracle's subset hulls, so that
    ``umax_bruteforce`` shares no hull routine with ``umax``.
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
    A circle test about the bounding-box midpoint ``c`` drops interior
    points first: the ``_far_count`` points farthest from ``c`` (or all)
    form the far set, and the disk of ``_inscribed_radii`` about ``c``
    (none below 3 vertices) lies inside their ``_hulls`` hull, the trials'
    elimination.  If no other point reaches that radius, the far set holds
    every possible vertex and every copy of one, so its hull is the hull;
    otherwise ``_hulls`` runs again on the points that reach it.
    """
    return _convex_hull(as_points_array(points))


def _convex_hull(pts: np.ndarray) -> PolygonChain:
    """``convex_hull`` of the checked array ``pts``."""
    x, y = pts[:, 0], pts[:, 1]
    c = np.array([0.5 * x.min() + 0.5 * x.max(), 0.5 * y.min() + 0.5 * y.max()])
    dist = (x - c[0]) ** 2
    dist += (y - c[1]) ** 2
    np.sqrt(dist, out=dist)
    kth = max(0, len(dist) - _far_count(len(dist)))
    far = np.partition(dist, kth)[kth]
    keep = np.flatnonzero(dist >= far)
    (ring,), (radius,) = _hulls(pts[keep], [len(keep)], c)
    if radius < far and len(keep) < len(pts):
        keep = np.flatnonzero(dist >= radius)
        (ring,), _ = _hulls(pts[keep], [len(keep)], c)
    return PolygonChain(tuple(_rotate_min_first([int(keep[i]) for i in ring])))


def uniform_hulls(
    params: BetaParams, N: int, selectors
) -> list[tuple[np.ndarray, np.ndarray, PolygonChain]]:
    """The hull of each trial's ``N`` points, the hull stage run once for all.

    Each of ``selectors`` is a trial's ``select``: ``select(floor)`` returns
    the indices (sorted) of the trial's points whose radius uniform is
    ``>= floor``, and copies of their angle and radius uniforms.  A radius
    increases with its uniform, so the circle test runs about the origin on
    the radius uniforms:

    1. Each trial selects its far set, the points with ``u >= 1 -
       _far_count(N) / N`` (every point when that is not positive).
    2. ``_far_hulls`` gives all far sets coordinates, in one
       ``points_from_uniforms`` call, and their hulls and inscribed radii.
    3. A trial whose radius's floor ``u* = radius_uniform_floor(radius)``
       falls below the far floor selects again, at ``u*``: every point when
       the origin is not strictly inside the far set's hull (``u* = 0``).
       These widened sets go through ``_far_hulls`` as one smaller batch.

    Only the selected points get a radius, an angle and coordinates.

    Returns, for each trial, the kept indices (sorted), their coordinates,
    which are the rows of ``points_from_uniforms`` of the whole blocks at
    those indices bit for bit (the map is elementwise), and their hull as
    positions into the kept points, rotated to start at the smallest.
    Mapped through the kept indices, that hull is ``convex_hull`` of the
    whole sample: both run ``_hulls``.  It is the monotone chain's hull
    except on near-collinear or near-coincident triples, where the two can
    round a cross product differently (see ``_monotone_rings``).
    """
    far_floor = 1.0 - _far_count(N) / N
    hulls = _far_hulls(params, [select(far_floor) for select in selectors])
    floors = [radius_uniform_floor(params, radius) for *_, radius in hulls]
    short = [t for t, floor in enumerate(floors) if floor < far_floor]
    wide = _far_hulls(params, [selectors[t](floors[t]) for t in short])
    for t, hull in zip(short, wide):
        hulls[t] = hull
    return [(keep, pts, PolygonChain(tuple(_rotate_min_first(r)))) for keep, pts, r, _ in hulls]


def _far_hulls(params: BetaParams, picks) -> list[tuple[np.ndarray, np.ndarray, list, float]]:
    """Coordinates, hull and inscribed radius of each ``(keep, angle_u, radius_u)`` pick.

    The picks are ``uniform_hulls``' selections.  One ``points_from_uniforms``
    call maps them all (it is elementwise, so each row is the same double as
    for its pick alone), and one ``_hulls`` call about the origin gives the
    ``ring`` and ``radius`` of each pick's ``(keep, points, ring, radius)``.
    """
    if not picks:
        return []
    keeps, angle_u, radius_u = zip(*picks)
    pts = points_from_uniforms(params, np.concatenate(angle_u), np.concatenate(radius_u))
    counts = [len(keep) for keep in keeps]
    return list(zip(keeps, np.split(pts, np.cumsum(counts)[:-1]), *_hulls(pts, counts, 0.0)))


def _hulls(xy: np.ndarray, counts, centre) -> tuple[list[list[int]], list[float]]:
    """Hull and inscribed radius of each point set, set ``b`` the next ``counts[b]`` rows of ``xy``.

    ``xy`` is an ``(n, 2)`` float array.  Each set is sorted by
    ``(x, y)``, ties by index, the monotone chain's order, which is exact on
    the computed doubles.  Points equal to the one before them are its
    copies of larger index and are left out, as the chain leaves them out;
    the hull is ``_monotone_rings`` of the rest.  ``centre`` is the circle
    test's and enters only the radii; the hulls do not depend on it.

    Returns each set's ring, positions into the set counterclockwise from
    its lexicographically smallest point, and each ring's
    ``_inscribed_radii`` about ``centre``, 0.0 below 3 vertices.
    """
    counts = np.asarray(counts)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    # A padded row of complex keys x + iy per set, a view of the rows in C
    # order: numpy sorts them by real part, then imaginary part, and a
    # stable sort keeps index order on ties.
    z = np.ascontiguousarray(xy).view(complex)[:, 0]
    trial = np.repeat(np.arange(len(counts)), counts)
    keys = np.full((len(counts), counts.max()), np.inf, dtype=complex)
    keys[trial, np.arange(len(trial)) - bounds[trial]] = z
    rows = np.argsort(keys, axis=1, kind="stable") + bounds[:-1, None]
    order = rows[np.arange(keys.shape[1]) < counts[:, None]]
    z = z[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (z[1:] != z[:-1]) | (trial[1:] != trial[:-1])
    order = order[fresh]
    hulls, sizes, radii = _monotone_rings(xy[order], trial[fresh], len(counts), centre)
    hulls = order[hulls]
    ring = (hulls - bounds[trial[hulls]]).tolist()
    cuts = np.concatenate(([0], np.cumsum(sizes))).tolist()
    return [ring[cuts[b] : cuts[b + 1]] for b in range(len(counts))], radii


def _runs(trial: np.ndarray):
    """First and last row of each run of equal ``trial``, and each row's cyclic neighbours in its run."""
    starts = np.ones(len(trial) + 1, dtype=bool)  # starts[i]: row i begins a run
    starts[1:-1] = trial[1:] != trial[:-1]
    first, last = np.flatnonzero(starts[:-1]), np.flatnonzero(starts[1:])
    nxt, prv = np.arange(1, len(trial) + 1), np.arange(-1, len(trial) - 1)
    nxt[last], prv[first] = first, last
    return first, last, nxt, prv


def _monotone_rings(xy: np.ndarray, trial: np.ndarray, trials: int, centre):
    """Hulls of many point sets at once, by reflex-vertex elimination on x-monotone polygons.

    ``xy`` holds the distinct points of ``trials`` sets, set ``trial[i]``'s
    in one run sorted by ``(x, y)``.  Each set is laid out as an x-monotone
    polygon: its lexicographic minimum ``L``; the points not strictly left
    of the line ``L -> R`` to its maximum ``R``, in increasing order (``R``
    last); the points strictly left of it, in decreasing order.  Each pass
    finds the vertices other than ``L`` and ``R`` that are not strict left
    turns, with ``_monotone_chain``'s cross product ``(a - o) x (b - o)``,
    the previous vertex ``o`` and the next ``b`` taken cyclically within the
    set.  In each run of such vertices it deletes every other one, starting
    with the first, so both neighbours of a deleted vertex outlive its pass.
    It stops when a pass finds none.

    Why it is the hull (A. M. Andrew, IPL 9, 1979).  ``L`` and ``R`` are
    extreme points.  The polygon is two chains from ``L`` to ``R``, each
    monotone in ``(x, y)``: the lower one on or right of the line ``L ->
    R``, the upper one left of it.  On either chain, a vertex that is not a
    strict left turn lies on or beyond the segment of its two neighbours,
    points of the set, so it is not an extreme point, and deleting it keeps
    both chains monotone.  At the fixpoint both chains turn left
    throughout, so the polygon is convex, and every deleted point lies on
    or inside it.  Every test is a float cross product of the chain's kind,
    on the chain's triples in the chain's order, so a deletion errs only
    where a vertex lies within rounding of the segment of its two
    surviving neighbours, as in the chain: the hull is ``_monotone_chain``'s
    except on near-collinear or near-coincident triples.  Deleting a whole
    run at once would test each vertex against a neighbour deleted with it.

    Returns the rows of every hull, each counterclockwise from ``L``, set
    after set; each hull's size (0 for an empty set); and each hull's
    ``_inscribed_radii`` about ``centre`` (0.0 below 3 vertices).
    """
    first, last, nxt, prv = _runs(trial)
    run = np.repeat(np.arange(len(first)), last - first + 1)
    upper = _cross(xy[first][run], xy[last][run], xy) > 0.0
    # Lower points, L first, take the run's first places in increasing
    # order, upper ones its last places in decreasing order: ``ups`` counts
    # the upper points of the run up to each.
    ups = np.cumsum(upper)
    ups -= ups[first][run]
    place = np.where(upper, last[run] + 1 - ups, np.arange(len(ups)) - ups)
    rows = np.empty_like(place)
    rows[place] = np.arange(len(place))
    ring = xy[rows]
    # The vertices form linked rings over their places.  A pass tests only
    # the vertices whose neighbours changed in the pass before.
    movable = np.ones(len(rows), dtype=bool)
    movable[first] = movable[place[last]] = False
    alive = np.ones(len(rows), dtype=bool)
    test = np.flatnonzero(movable)
    while len(test):
        bent = test[~(_cross(ring[prv[test]], ring[test], ring[nxt[test]]) > 0.0)]
        # A run of bent vertices is a slice of ``bent``: each but its first
        # follows a bent vertex.
        seen = np.zeros(len(rows), dtype=bool)
        seen[bent] = True
        i = np.arange(len(bent))
        offset = i - np.maximum.accumulate(np.where(seen[prv[bent]], 0, i))
        gone = bent[offset % 2 == 0]
        before, after = prv[gone], nxt[gone]
        nxt[before], prv[after] = after, before
        alive[gone] = False
        seen[:] = False
        seen[before] = seen[after] = True
        test = np.flatnonzero(seen & movable)
    kept = np.flatnonzero(alive)
    sizes = np.bincount(trial[kept], minlength=trials)
    radii = np.zeros(trials)
    wide = kept[sizes[trial[kept]] >= 3]
    first, _, nxt, _ = _runs(trial[wide])
    radii[trial[wide[first]]] = _inscribed_radii(ring[wide], nxt, first, centre)
    return rows[kept], sizes, radii.tolist()


def _cross(o, a, b) -> np.ndarray:
    """``(a - o) x (b - o)`` of rows of points, as ``_monotone_chain`` computes it."""
    d, e = a - o, b - o
    return d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]


def _rotate_min_first(cycle):
    """The same cyclic sequence (list or tuple), rotated to start at its minimum."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def _measure(pts: np.ndarray, cycle, objective: Objective) -> float:
    """The objective of the closed polygon ``cycle``, indices into the checked array ``pts``.

    Sums the cyclic edges ``a -> b`` in cycle order: ``hypot(b - a)`` for
    the perimeter, so a 2-vertex cycle counts its segment twice, and the
    shoelace term ``cross(a, b)``, halved, for the signed area, 0 below 3
    vertices.  The sums run on Python floats, which round as numpy's
    doubles do, so an overflow gives ``inf`` without numpy's
    ``RuntimeWarning``.
    """
    xy = pts[list(cycle)].tolist()
    edges = zip(xy, xy[1:] + xy[:1])
    total = 0.0
    if objective is Objective.PERIMETER:
        for (ax, ay), (bx, by) in edges:
            total += math.hypot(bx - ax, by - ay)
        return total
    for (ax, ay), (bx, by) in edges:
        total += ax * by - ay * bx
    return 0.5 * total


def polygon_perimeter(chain: PolygonChain, points) -> float:
    """Cyclic edge-length sum; a 2-point chain counts its segment twice."""
    return _measure(as_points_array(points), chain.vertex_indices, Objective.PERIMETER)


def polygon_area(chain: PolygonChain, points) -> float:
    """Signed shoelace area: positive for CCW chains, 0 for degenerate ones."""
    return _measure(as_points_array(points), chain.vertex_indices, Objective.AREA)


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
    objective = Objective.parse(objective)
    pts = np.asarray(tuples, dtype=float)
    if pts.ndim != 3 or pts.shape[1] == 0 or pts.shape[2] != 2:
        raise ValueError(f"expected an (m, n, 2) array of tuples, got shape {pts.shape}")
    if pts.shape[1] == 3:
        # Every pair of a triple is a hull edge, so the hull is closed form;
        # for degenerate triples the two collinear legs add up to twice the
        # span.
        if objective is Objective.PERIMETER:
            d01 = np.hypot(pts[:, 0, 0] - pts[:, 1, 0], pts[:, 0, 1] - pts[:, 1, 1])
            d12 = np.hypot(pts[:, 1, 0] - pts[:, 2, 0], pts[:, 1, 1] - pts[:, 2, 1])
            d20 = np.hypot(pts[:, 2, 0] - pts[:, 0, 0], pts[:, 2, 1] - pts[:, 0, 1])
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


def threshold_radius(objective: Objective, n: int, threshold: float) -> float:
    """A radius ``r0`` that every point of an ``n``-tuple scoring ``threshold`` reaches.

    Among points made by ``sampler.points_from_uniforms``, any ``n``-tuple
    with a point whose computed radius is below ``r0`` gets a
    ``hull_functional`` value below ``threshold``.  So with
    ``sampler.radius_uniform_floor`` it tells from the radius uniforms
    alone which tuples can score ``threshold``.  Proved for ``n = 3``; it
    is 0.0 (no tuple excluded) for every other ``n``, and whenever
    ``threshold`` is at most ``g(0)``, 4 for perimeter and 1/2 for area.

    The bound.  Let ``g(r)`` be the largest objective of a triangle in the
    unit disk with a vertex ``p`` at radius ``r``, the others ``q1, q2``.
    Put ``a = |q1 + q2| / 2`` and ``b = |q1 - q2| / 2``, so
    ``a^2 + b^2 = (|q1|^2 + |q2|^2) / 2 <= 1``.

    * Perimeter.  ``|p - q1|^2 + |p - q2|^2 = 2 r^2 + 2 a^2 + 2 b^2 -
      2 p.(q1 + q2) <= 2 (1 + r^2 + 2 r a)``, so by QM-AM the perimeter is
      at most ``2 sqrt(1 + r^2 + 2 r a) + 2 b``.  That grows with ``a``
      and ``b``, so ``g(r) <= max F_r`` over ``[0, pi/2]``, with
      ``F_r(x) = 2 sqrt(1 + r^2 + 2 r cos x) + 2 sin x``; equality holds at
      ``q = (cos x, +-sin x)``, ``p = (-r, 0)``.  ``F_r'' = -2 r cos x /
      sqrt(s) - 2 r^2 sin^2 x / s^(3/2) - 2 sin x <= 0`` (``s`` the
      radicand), so ``F_r`` is concave.
    * Area.  If the line ``q1 q2`` lies at distance ``x`` from the centre
      (``q1 = q2`` gives area 0), the chord it cuts has length
      ``2 sqrt(1 - x^2)`` and ``p`` lies within ``x + r`` of the line, so
      ``g(r) <= max F_r`` over ``[0, 1]``, with ``F_r(x) = (x + r)
      sqrt(1 - x^2)``, concave; equality holds with ``q`` the chord's ends
      and ``p`` opposite.  Its maximum sits at ``x = (sqrt(r^2 + 8) - r) /
      4``, in ``[1/2, 1/sqrt 2]``.

    In both, ``F_r`` grows with ``r``, so a tuple with a point at radius
    ``t <= r`` scores at most ``g(r)``, and ``g(0)`` is 4 or 1/2.  For
    a concave ``F``, the tangent at any ``x^`` lies above it, so on a
    domain of length at most 2, ``max F <= F(x^) + 2 |F'(x^)| =: G(r)``.
    The code bisects on the sign of ``F_r'`` over ``[0, pi/2]`` or
    ``[0, 3/4]`` for ``x^``, so ``G(r) - g(r)`` is rounding only, and
    bisects on ``r`` for the largest one it certifies,
    ``G'(r0) <= fl(threshold (1 - m))``, with ``G'`` the computed ``G`` and
    ``m = _RADIUS_MARGIN = 2^-32``; ``r0 = 0`` needs no certificate.

    Rounding.  Let ``d = 2^-53`` and assume ``cos``, ``sin`` and ``hypot``
    err by at most ``P = 2^-42`` relative, as ``sampler`` assumes of
    ``pow`` (libm errs by about 1 ulp).  Write ``T = threshold``.

    1. A computed radius is ``sqrt(1 - y)`` with ``y >= 0``, so at most 1,
       and a point's coordinates ``fl(r cos)``, ``fl(r sin)`` have norm at
       most ``r (1 + d)(1 + P) =: r k``, ``k <= 1 + 2^-41``.  The tuple
       divided by ``k`` lies in the disk with a point at radius below
       ``r0``, and the objective is homogeneous of degree 1 or 2, so its
       exact value is at most ``k^2 g(r0)``.
    2. ``hull_functional`` at ``n = 3`` rounds the perimeter up by at most
       ``(1 + d)^3 (1 + P)``.  The area's cross product ``c`` of rounded
       differences ``u, v`` errs by at most ``d |c| + 3.1 d |u| |v|``, with
       ``|u|, |v| <= 2 k``, so the area is at most ``(1 + d)`` times the
       exact one plus ``2^-50``.  Either way the computed value is at most
       ``(1 + 2^-39) g(r0) + 2^-50``.
    3. ``x^`` lies in ``[0, pi/2]`` (where ``s >= 1``) or ``[0, 3/4]``
       (where ``sqrt(1 - x^2) >= 0.66``), so ``F`` and ``F'`` there take
       a few operations on terms below 6, each within ``P`` relative, and
       ``G'`` differs from the exact ``G`` by less than ``2^-35``.  Hence
       ``g(r0) <= G(r0) <= T (1 - m)(1 + d) + 2^-35``, and, as a nonzero
       ``r0`` needs ``T >= G'(0) > 0.49``, the computed value is at most
       ``T - T m (1 - 2^-6) + 2^-34.9 < T``.

    The bound is tight: ``r0`` sits within ~1e-9 of ``g^-1(T)``.
    """
    objective = Objective.parse(objective)
    if n != 3:
        return 0.0
    if objective is Objective.PERIMETER:
        top = math.pi / 2

        def curve(r, x):
            s = math.sqrt(1.0 + r * r + 2.0 * r * math.cos(x))
            return 2.0 * s + 2.0 * math.sin(x), 2.0 * math.cos(x) - 2.0 * r * math.sin(x) / s

    else:
        top = 0.75

        def curve(r, x):
            w = math.sqrt(1.0 - x * x)
            return (x + r) * w, (1.0 - 2.0 * x * x - r * x) / w

    def bound(r):  # G'(r)
        lo, hi = 0.0, top
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if curve(r, mid)[1] > 0.0 else (lo, mid)
        value, slope = curve(r, lo)
        return value + 2.0 * abs(slope)

    cap = threshold * (1.0 - _RADIUS_MARGIN)
    if not bound(0.0) <= cap:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bound(mid) <= cap else (lo, mid)
    return lo


def max_kgon(hull: PolygonChain, points, k: int, objective: Objective) -> UMaxResult:
    """Best polygon using at most ``k`` hull vertices: ``max_kgons`` of one hull.

    For ``k >= h`` that is the hull itself.  Otherwise, on a strictly convex
    hull, the best polygon uses exactly ``k`` vertices, and its value sums
    start-free weights of its cyclic edges ``u -> v``: ``|H_u H_v|``
    (perimeter) or the shoelace term ``cross(H_u, H_v) / 2`` (area).  A
    max-plus pass finds the best k-gon through hull position 0,
    ``p_0 < ... < p_{k-1}``, in ``O(h^2 k)``.  Some optimal k-gon intersperses
    it (Boyce, Dobkin, Drysdale & Guibas 1985): its ``j``-th vertex lies on
    the closed arc ``[p_{i+j}, p_{i+j+1}]``.  With ``i`` the shortest arc,
    the second pass solves the anchors on that arc, each layer kept to its
    arc.  The best chains of two anchors intersperse too (same paper), so
    it bisects: it solves the middle anchor, then each half with every
    layer's range cut at that anchor's chain, and so on down to intervals of
    at most ``_DP_LEAF`` anchors, which it solves whole.  Each level is one
    ``_max_plus`` call.  On evenly spread chains a level costs about half
    the one before it, so the pass costs ``O(h^2 / k)``; at worst each of its
    ``O(log(h / k))`` levels costs about what one pass from all anchors at
    once does, ``O(h^3 / k^2)``.

    On exact float ties the cycle is an optimal one, but not always the
    lexicographically smallest: each anchor keeps only its first maximal
    predecessor at every layer, within its ranges, and the first anchor with
    the best total wins.  Where a predecessor outside an anchor's cut ranges
    ties its best one, the cycle may differ from the one a pass over whole
    arcs finds, with the same value.

    Raises:
        ValueError: if ``k`` is not an integer ``>= 2``, or if ``k < h`` and
        ``h > _MAX_HULL``.
    """
    return max_kgons([(hull, points)], k, objective)[0]


def max_kgons(cases, k: int, objective: Objective) -> list[UMaxResult]:
    """``max_kgon`` of each ``(hull, points)`` case, the DP passes stacked across hulls.

    Consecutive hulls with ``k < h`` are stacked while the stack's size
    times ``(max h / k)^2``, about the cells of a padded second-pass layer,
    stays within ``_DP_BLOCK``; a larger hull stands alone.  A stack makes
    one rooted ``_max_plus`` pass for all its hulls, and one call per level
    of the second pass, with a row per node of every hull, so small hulls
    share the fixed cost of each numpy call, and large ones do not pad each
    other's rows with work.  Hull ``b``'s position ``p`` is ``p + b w`` in
    one coordinate row per hull, ``w = 2 max(h) + 1``; each layer is padded
    after its hull's last position with ``b w + w - 1``, above every real
    position, whose edges are all ``-inf``.  So every real cell sums the
    same doubles as for the hull alone, and each first maximum, and so each
    cycle, is that of the hull alone.  The second pass's nodes are reduced
    per hull by total, descending, then anchor, ascending: the tie rule of
    ``max_kgon``.  Each value is ``_measure`` of its cycle, on the points
    checked once here.

    Raises:
        ValueError: as ``max_kgon``, for any case, before any DP runs.
    """
    k, objective = check_vertex_count(k), Objective.parse(objective)
    return _max_kgons([(hull, as_points_array(points)) for hull, points in cases], k, objective)


def _max_kgons(cases, k: int, objective: Objective) -> list[UMaxResult]:
    """``max_kgons`` of checked arguments: each case's points an array ``as_points_array`` gave."""
    cycles = [hull.vertex_indices for hull, _ in cases]
    stacks: list[list[int]] = []
    top = 0
    for i, h in enumerate(map(len, cycles)):
        if k >= h:
            continue
        if h > _MAX_HULL:
            raise ValueError(
                f"the hull has h = {h} vertices; max_kgon takes at most {_MAX_HULL} "
                "(its rooted pass costs O(h^2 k) time)"
            )
        if not stacks or (len(stacks[-1]) + 1) * max(top, h) ** 2 > k * k * _DP_BLOCK:
            stacks.append([])
            top = 0
        top = max(top, h)
        stacks[-1].append(i)
    for stack in stacks:
        for i, cycle in zip(stack, _best_cycles([cases[i] for i in stack], k, objective)):
            cycles[i] = cycle
    return [UMaxResult(_measure(pts, c, objective), c) for (_, pts), c in zip(cases, cycles)]


def _best_cycles(cases, k: int, objective: Objective) -> list[tuple[int, ...]]:
    """The ``max_kgon`` cycle of each ``(hull, points)`` case, all with ``k < h``."""
    hs = np.array([len(hull.vertex_indices) for hull, _ in cases])
    width = 2 * int(hs.max()) + 1
    # Perimeter weights take raw coordinates, area ones coordinates relative
    # to hull vertex 0 (any origin gives a closed cycle the same shoelace sum;
    # this one keeps the terms small), held twice over for unwrapped positions.
    x = np.zeros((len(cases), width))
    y = np.zeros((len(cases), width))
    for b, (hull, pts) in enumerate(cases):
        idx = np.asarray(hull.vertex_indices, dtype=np.int64)
        origin = 0.0 if objective is Objective.PERIMETER else pts[idx[0]]
        twice = pts[np.concatenate((idx, idx))] - origin
        x[b, : len(twice)], y[b, : len(twice)] = twice.T
    x, y = x.ravel(), y.ravel()

    def edge(p, q):
        if objective is Objective.PERIMETER:
            return np.hypot(x[p] - x[q], y[p] - y[q])
        return 0.5 * (x[p] * y[q] - y[p] * x[q])

    base = np.arange(0, x.size, width)  # position 0 of each hull

    def layer(b, lo, hi):  # positions lo..hi of hull b[r] in row r, padded
        last = (hi - lo)[:, None]
        span = np.arange(int(last.max()) + 1)
        return np.where(span <= last, (base[b] + lo)[:, None] + span, base[b, None] + width - 1)

    hulls = np.arange(len(cases))
    _, rooted = _max_plus(edge, hs, base[:, None], [layer(hulls, 1, hs - 1)] * (k - 1))
    p = rooted(np.zeros(len(cases), dtype=np.intp)) - base[:, None]
    ring = np.hstack((p, p + hs[:, None]))  # the rooted k-gon's positions, unwrapped twice
    i = np.diff(ring[:, : k + 1], axis=1).argmin(axis=1)
    arcs = ring[hulls[:, None], i[:, None] + np.arange(k + 1)]
    # The second pass bisects the anchors.  A node is a hull, an interval of
    # anchors (column 0 of lo, hi) and a range per layer (column j); each
    # level is one _max_plus call with a row per node.
    node, lo, hi = hulls, arcs[:, :k], arcs[:, 1:]
    found = []
    while node.size:
        whole = hi[:, 0] - lo[:, 0] < _DP_LEAF
        mid = (lo[:, 0] + hi[:, 0]) // 2
        anchors = layer(node, np.where(whole, lo[:, 0], mid), np.where(whole, hi[:, 0], mid))
        layers = [layer(node, lo[:, j], hi[:, j]) for j in range(1, k)]
        totals, trace = _max_plus(edge, hs[node], anchors, layers)
        t = totals.argmax(axis=1)
        chain, total = trace(t) - base[node, None], totals[np.arange(node.size), t]
        found.append((node, total, chain))
        # Some best chain of an anchor left of mid lies at or before mid's in
        # every layer, and one right of it at or after (Boyce et al.).  A
        # node without a chain keeps its ranges.
        ok = (total > -np.inf)[:, None]
        left = np.column_stack((mid - 1, np.where(ok, chain[:, 1:], hi[:, 1:])))
        right = np.column_stack((mid + 1, np.where(ok, chain[:, 1:], lo[:, 1:])))
        split = ~whole
        node = np.concatenate((node[split], node[split]))
        lo, hi = np.vstack((lo[split], right[split])), np.vstack((left[split], hi[split]))
        keep = lo[:, 0] <= hi[:, 0]
        node, lo, hi = node[keep], lo[keep], hi[keep]
    # Each anchor was solved in one node: the best total wins, ties to the first anchor.
    node, total, chain = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((chain[:, 0], -total, node))
    best = order[np.searchsorted(node[order], hulls)]
    cycles = chain[best] % hs[:, None]
    return [
        _rotate_min_first(tuple(hull.vertex_indices[q] for q in cycle))
        for (hull, _), cycle in zip(cases, cycles.tolist())
    ]


def _tiles(hulls: int, rows: int, cells: int):
    """``(hull, row)`` slices covering ``hulls x rows`` rows of ``cells`` cells each.

    A tile holds at most ``_DP_BLOCK`` cells, or one row: the rows of whole
    hulls when one hull's rows fit, else some rows of one hull.
    """
    fit = max(1, _DP_BLOCK // cells)
    per, part = max(1, fit // rows), min(fit, rows)
    for s in range(0, hulls, per):
        for r in range(0, rows, part):
            yield slice(s, s + per), slice(r, r + part)


def _max_plus(edge, h: np.ndarray, anchors: np.ndarray, layers: list[np.ndarray]):
    """Best closed chains ``anchor -> layers[0] -> ... -> layers[-1] -> anchor`` of each row.

    Row ``b`` of ``anchors`` and of each layer, a hull or a node of the
    second pass, holds positions of a hull of ``h[b]`` vertices, in
    ``max_kgons``' stacked coordinates: unwrapped hull positions below
    ``2 h[b]``, strictly increasing along a chain and below ``anchor +
    h[b]`` at its end, or padding above them all; ``edge(p, q)`` weighs the
    edges ``p -> q``.  A step works all anchors of all rows in tiles of at
    most ``_DP_BLOCK`` cells: blocks of successor columns, whose weights are
    computed once for all rows (kept while the next step repeats the
    block), then ``_tiles`` of anchor rows.  A block weighs only the
    predecessors below its last column in some row; the others would be
    ``-inf``, so each predecessor ``argmax`` (first maximum on ties) is
    that of the whole step.  Weights are laid out successor-major, so that
    ``argmax`` runs along a tile's last axis, and the best total is the cell
    it picks.  The closing edges are added in ``_tiles`` of anchor rows
    too.  Returns each anchor's best total, shape ``anchors``
    (``-inf`` without a chain), and ``trace(t)``, the positions of the best
    chain of anchor ``t[b]`` of each row ``b``, one row each.
    """
    hulls, rows = anchors.shape
    a = anchors[:, :, None]
    dp = np.where(a < layers[0][:, None], edge(a, layers[0][:, None]), -np.inf)
    args, key = [], None
    for u, v in zip(layers, layers[1:]):
        best = np.empty((hulls, rows, v.shape[1]))
        arg = np.empty((hulls, rows, v.shape[1]), dtype=np.intp)
        cols = max(1, _DP_BLOCK // u.size)
        for c in range(0, v.shape[1], cols):
            w = v[:, c : c + cols, None]
            if key != (id(u), id(v), c):  # the rooted pass repeats one layer
                key = id(u), id(v), c
                m = max(1, int(np.count_nonzero(u < w[:, -1], axis=1).max()))
                pred = u[:, None, :m]
                step = np.where(pred < w, edge(pred, w), -np.inf)  # (hull, successor, predecessor)
            for s, r in _tiles(hulls, rows, step[0].size):
                cand = dp[s, r, None, :m] + step[s, None]
                at = arg[s, r, c : c + cols]
                cand.argmax(axis=3, out=at)
                picked = cand.reshape(-1, m)[np.arange(at.size), at.ravel()]
                best[s, r, c : c + cols] = picked.reshape(at.shape)
        args.append(arg)
        dp = best
    last = layers[-1][:, None]
    for s, r in _tiles(hulls, rows, last.shape[2]):
        end = a[s, r] + h[s, None, None]
        dp[s, r] += np.where(last[s] < end, edge(last[s], a[s, r]), -np.inf)
    args.append(dp.argmax(axis=2))

    def trace(t: np.ndarray) -> np.ndarray:
        each = np.arange(hulls)
        v = args[-1][each, t]
        positions = [layers[-1][each, v]]
        for j in range(len(layers) - 2, -1, -1):
            v = args[j][each, t, v]
            positions.append(layers[j][each, v])
        positions.append(anchors[each, t])
        return np.stack(positions[::-1], axis=1)

    return dp.max(axis=2), trace


def umax(points, n: int, objective: Objective) -> UMaxResult:
    """Exact maximum of the objective over all subsets of at most ``n`` points.

    Raises:
        ValueError: if ``n`` is not an integer ``>= 2``, fewer than ``n``
        points are supplied, or the hull is too large for ``max_kgon``.
    """
    pts = as_points_array(points)
    n = check_vertex_count(n)
    if len(pts) < n:
        raise ValueError(f"need at least n={n} points, got {len(pts)}")
    return _max_kgons([(_convex_hull(pts), pts)], n, Objective.parse(objective))[0]


def umax_bruteforce(points, n: int, objective: Objective) -> UMaxResult:
    """Reference semantics: exhaustive enumeration of all C(N, n) subsets.

    Guarded to C(N, n) <= 10^6.  Used to validate :func:`umax`; the two must
    agree because every subset's hull uses only extreme points of the full
    hull and larger subsets never score lower.  Each subset's hull is
    ``_monotone_chain``'s, not ``convex_hull``'s elimination.
    """
    from itertools import combinations

    pts = as_points_array(points)
    n = check_vertex_count(n)
    if len(pts) < n:
        raise ValueError(f"need at least n={n} points, got {len(pts)}")
    objective = Objective.parse(objective)
    total = math.comb(len(pts), n)
    if total > 10**6:
        raise ValueError(f"C({len(pts)}, {n}) = {total} exceeds the 10^6 guard")

    best: UMaxResult | None = None
    for combo in combinations(range(len(pts)), n):
        cycle = _rotate_min_first(tuple(combo[i] for i in _monotone_chain(pts[list(combo)])))
        value = _measure(pts, cycle, objective)
        if best is None or value > best.value or (
            value == best.value and cycle < best.vertex_indices
        ):
            best = UMaxResult(value, cycle)
    assert best is not None
    return best
