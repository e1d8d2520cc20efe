import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betapoly import geometry
from betapoly.geometry import (
    Objective,
    PolygonChain,
    _monotone_chain,
    _prefilter,
    _rotate_min_first,
    convex_hull,
    hull_functional,
    max_kgon,
    polar_candidates,
    polygon_area,
    polygon_perimeter,
    umax,
    umax_bruteforce,
)
from betapoly.sampler import BetaParams, SeedPolicy, cartesian, draw_polar, sample_batch

SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def _cross(points, i, j, k):
    a, b, c = points[i], points[j], points[k]
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _assert_strictly_convex_ccw(chain, points):
    idx = chain.vertex_indices
    h = len(idx)
    for t in range(h):
        assert _cross(points, idx[t], idx[(t + 1) % h], idx[(t + 2) % h]) > 0.0


def test_convex_hull_square_with_interior_point():
    pts = np.vstack([SQUARE, [0.0, 0.0]])
    hull = convex_hull(pts)
    assert not hull.degenerate
    assert sorted(hull.vertex_indices) == [0, 1, 2, 3]
    assert hull.vertex_indices[0] == 0  # rotated so the smallest index leads
    _assert_strictly_convex_ccw(hull, pts)


def test_convex_hull_collinear_is_degenerate():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    hull = convex_hull(pts)
    assert hull.degenerate
    assert sorted(hull.vertex_indices) == [0, 1]


def test_convex_hull_single_and_duplicates():
    hull = convex_hull(np.array([[0.25, -0.5]]))
    assert hull.degenerate and hull.vertex_indices == (0,)
    dup = convex_hull(np.array([[0.1, 0.2]] * 5))
    assert dup.degenerate and dup.vertex_indices == (0,)


def test_convex_hull_drops_collinear_edge_points():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    hull = convex_hull(pts)
    assert sorted(hull.vertex_indices) == [0, 1, 3]


def test_convex_hull_contains_all_points():
    pts = sample_batch(BetaParams(0.0), 1000, SeedPolicy(11), 0)
    hull = convex_hull(pts)
    _assert_strictly_convex_ccw(hull, pts)
    idx = hull.vertex_indices
    h = len(idx)
    for t in range(h):
        a = pts[idx[t]]
        b = pts[idx[(t + 1) % h]]
        side = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
        assert np.all(side >= -1e-12)


def _regular(h: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(h) / h + 0.3
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _assert_prefilter_exact(pts):
    """The pre-filtered hull equals the monotone chain run on every point."""
    assert convex_hull(pts).vertex_indices == tuple(_rotate_min_first(_monotone_chain(pts)))


def _assert_polar_prefilter_exact(phi, r):
    """The hull of the points kept by the radius filter equals the full monotone chain."""
    pts = cartesian(phi, r)
    keep = polar_candidates(r, lambda idx: pts[idx])
    hull = [int(keep[i]) for i in convex_hull(pts[keep]).vertex_indices]
    assert tuple(hull) == tuple(_rotate_min_first(_monotone_chain(pts)))
    return keep


def test_convex_hull_prefilter_agrees_with_direct_chain():
    # 130 points exercises the circle pre-filter; the monotone chain run on
    # the whole set must give the identical hull.
    pts = sample_batch(BetaParams(-0.5), 130, SeedPolicy(17), 0)
    _assert_prefilter_exact(pts)


@pytest.mark.parametrize("beta", [-0.99, 0.0, 2.0])
@pytest.mark.parametrize("N", [128, 1000, 20_000])
def test_prefilter_exact_on_samples(beta, N):
    pts = sample_batch(BetaParams(beta), N, SeedPolicy(23), N)
    _assert_prefilter_exact(pts)
    polar = draw_polar(BetaParams(beta), SeedPolicy(23).trial_generator(N), N)
    keep = _assert_polar_prefilter_exact(*polar)
    if N > 128 and beta >= 0.0:  # at beta = -0.99 most points are hull vertices
        assert len(_prefilter(pts)) < N // 2
        assert len(keep) < N // 2


@pytest.mark.parametrize(
    "shift, scale",
    [((1e3, -7e2), 1.0), ((0.0, 0.0), 1e-8), ((0.0, 0.0), 1e8), ((-3e-8, 5e-8), 1e-8)],
)
def test_prefilter_exact_off_centre_and_rescaled(shift, scale):
    for trial in range(3):
        pts = sample_batch(BetaParams(0.0), 3000, SeedPolicy(29), trial) * scale + shift
        _assert_prefilter_exact(pts)
        assert len(_prefilter(pts)) < 1500


def test_prefilter_exact_on_cocircular_polygon_with_interior_points():
    ring = _regular(256)
    inner = sample_batch(BetaParams(0.0), 400, SeedPolicy(31), 0) * 0.9
    for pts in (np.vstack([ring, inner]), np.vstack([inner, ring]), np.vstack([inner, ring]) + 5.0):
        _assert_prefilter_exact(pts)
        assert len(convex_hull(pts).vertex_indices) == 256


def test_prefilter_keeps_smallest_index_of_duplicated_extremes():
    pts = sample_batch(BetaParams(0.0), 500, SeedPolicy(37), 0)
    hull = list(convex_hull(pts).vertex_indices)
    # Copies of every hull vertex both before and after the originals.
    dup = np.vstack([pts[hull[::2]], pts, pts[hull]])
    _assert_prefilter_exact(dup)
    for i in convex_hull(dup).vertex_indices:
        same = np.flatnonzero(np.all(dup == dup[i], axis=1))
        assert i == same.min() and len(same) >= 2


def test_prefilter_keeps_all_when_centre_is_outside_the_sub_hull():
    # An arc of 200 hull vertices plus the origin: the points farthest from
    # the bounding-box midpoint hug the x-axis, and their hull misses it.
    angles = np.linspace(0.0, math.pi / 3.0, 200)
    pts = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]), [[0.0, 0.0]]])
    assert len(_prefilter(pts)) == len(pts)
    assert len(convex_hull(pts).vertex_indices) == len(pts)
    _assert_prefilter_exact(pts)


def test_prefilter_exact_keeps_all_when_origin_is_outside_the_far_hull():
    # An arc of 200 unit-radius points within 60 degrees, plus 100 nearer
    # points in the same wedge: the farthest points' hull misses the origin,
    # so the radius filter keeps every point.
    phi = np.concatenate([np.linspace(0.0, math.pi / 3.0, 200), np.linspace(0.1, 0.9, 100)])
    r = np.concatenate([np.ones(200), np.linspace(0.2, 0.8, 100)])
    keep = _assert_polar_prefilter_exact(phi, r)
    assert np.array_equal(keep, np.arange(len(r)))


def test_prefilter_falls_back_on_collinear_cloud():
    t = np.random.default_rng(41).uniform(-1.0, 1.0, 300)
    pts = np.column_stack([t, 0.5 * t + 0.25])
    assert len(_prefilter(pts)) == len(pts)
    hull = convex_hull(pts)
    assert hull.degenerate and sorted(hull.vertex_indices) == sorted([t.argmin(), t.argmax()])
    _assert_prefilter_exact(pts)


def test_polygon_perimeter_examples():
    chain = PolygonChain((0, 1, 2, 3))
    assert polygon_perimeter(chain, SQUARE) == pytest.approx(4.0 * math.sqrt(2.0))
    tri_pts = np.array(
        [[math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)] for k in range(3)]
    )
    assert polygon_perimeter(PolygonChain((0, 1, 2)), tri_pts) == pytest.approx(
        3.0 * math.sqrt(3.0)
    )
    assert polygon_perimeter(PolygonChain((0,), degenerate=True), SQUARE) == 0.0
    two = PolygonChain((0, 2), degenerate=True)
    assert polygon_perimeter(two, SQUARE) == pytest.approx(4.0)  # twice the segment


def test_polygon_area_examples():
    assert polygon_area(PolygonChain((0, 1, 2, 3)), SQUARE) == pytest.approx(2.0)
    tri_pts = np.array(
        [[math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)] for k in range(3)]
    )
    assert polygon_area(PolygonChain((0, 1, 2)), tri_pts) == pytest.approx(
        3.0 * math.sqrt(3.0) / 4.0
    )
    assert polygon_area(PolygonChain((0, 2), degenerate=True), SQUARE) == 0.0


def _hull_tuples(n: int) -> np.ndarray:
    """Random, integer-grid, all-identical and exact-segment n-tuples."""
    rng = np.random.default_rng(100 + n)
    random = rng.uniform(-1.0, 1.0, (200, n, 2))
    grid = rng.integers(-2, 3, (200, n, 2)).astype(float)  # duplicates, collinear runs
    identical = np.repeat(rng.uniform(-1.0, 1.0, (20, 1, 2)), n, axis=1)
    base = rng.integers(-3, 4, (20, 1, 2))
    step = rng.integers(-3, 4, (20, 1, 2))
    segment = (base + rng.integers(0, 4, (20, n, 1)) * step).astype(float)
    return np.concatenate([random, grid, identical, segment])


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("n", range(2, 9))
def test_hull_functional_matches_convex_hull(n, objective):
    tuples = _hull_tuples(n)
    measure = polygon_perimeter if objective is Objective.PERIMETER else polygon_area
    ref = np.array([measure(convex_hull(t), t) for t in tuples])
    np.testing.assert_allclose(hull_functional(tuples, objective), ref, rtol=1e-12, atol=0.0)


def test_hull_functional_single_point_and_validation():
    assert hull_functional(np.ones((2, 1, 2)), Objective.PERIMETER).tolist() == [0.0, 0.0]
    for bad in (np.zeros((3, 2)), np.zeros((3, 0, 2)), np.zeros((3, 4, 3))):
        with pytest.raises(ValueError):
            hull_functional(bad, Objective.AREA)


def test_max_kgon_square_k3():
    hull = convex_hull(SQUARE)
    area = max_kgon(hull, SQUARE, 3, Objective.AREA)
    assert area.value == pytest.approx(1.0)
    assert area.vertex_count == 3
    per = max_kgon(hull, SQUARE, 3, Objective.PERIMETER)
    assert per.value == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))
    # all four corner triangles tie in exact float arithmetic; the
    # lexicographically smallest vertex cycle must win on both routes
    assert per.vertex_indices == (0, 1, 2)
    assert area.vertex_indices == (0, 1, 2)
    assert umax_bruteforce(SQUARE, 3, Objective.PERIMETER).vertex_indices == (0, 1, 2)


def test_max_kgon_hexagon_alternating_triangle():
    pts = np.array(
        [[math.cos(math.pi * k / 3), math.sin(math.pi * k / 3)] for k in range(6)]
    )
    hull = convex_hull(pts)
    best = max_kgon(hull, pts, 3, Objective.AREA)
    assert best.value == pytest.approx(3.0 * math.sqrt(3.0) / 4.0)
    brute = umax_bruteforce(pts, 3, Objective.AREA)
    assert best.value == pytest.approx(brute.value, rel=1e-12)
    assert best.vertex_indices == brute.vertex_indices
    diffs = np.diff(sorted(best.vertex_indices))
    assert list(diffs) == [2, 2]  # alternating vertices


def _rescore(cycle, pts, objective) -> float:
    chain = PolygonChain(tuple(cycle), degenerate=len(cycle) < 3)
    measure = polygon_perimeter if objective is Objective.PERIMETER else polygon_area
    return measure(chain, pts)


@pytest.mark.parametrize("objective", list(Objective))
def test_max_kgon_regular_polygons(objective):
    # Cocircular points tie everywhere in exact arithmetic and only in part
    # in floats.  Where C(h, n) is small the oracle decides; everywhere the
    # optimum is the subset with the most even gaps (sin is concave).
    for h in range(3, 41):
        pts = _regular(h)
        for n in range(2, min(h, 7) + 1):
            fast = umax(pts, n, objective)
            assert fast.vertex_count == n
            gaps = [h // n + (j < h % n) for j in range(n)]
            even = _rescore(np.cumsum([0] + gaps[:-1]), pts, objective)
            assert fast.value == pytest.approx(even, rel=1e-12, abs=1e-15), (h, n)
            if math.comb(h, n) <= 1000:
                slow = umax_bruteforce(pts, n, objective)
                assert fast.value == pytest.approx(slow.value, rel=1e-12, abs=1e-15), (h, n)
            if n >= 3:
                _assert_strictly_convex_ccw(PolygonChain(fast.vertex_indices), pts)


@pytest.mark.parametrize("objective, N", [(Objective.PERIMETER, 1000), (Objective.AREA, 4000)])
def test_max_kgon_equals_oracle_on_large_random_hulls(objective, N):
    pts = sample_batch(BetaParams(0.0), N, SeedPolicy(47), 0)
    hull = list(convex_hull(pts).vertex_indices)
    assert 28 <= len(hull) <= 60
    fast = umax(pts, 3, objective)
    slow = umax_bruteforce(pts[hull], 3, objective)
    assert fast.value == slow.value
    assert fast.vertex_indices == tuple(_rotate_min_first([hull[i] for i in slow.vertex_indices]))


def test_max_kgon_anchor_blocks_do_not_change_the_result(monkeypatch):
    pts = sample_batch(BetaParams(0.0), 20_000, SeedPolicy(53), 0)
    hull = convex_hull(pts)
    cases = [(objective, k) for objective in Objective for k in (2, 3, 5, 8)]
    whole = [max_kgon(hull, pts, k, objective) for objective, k in cases]
    monkeypatch.setattr(geometry, "_DP_BLOCK", 1)  # one anchor per block
    assert [max_kgon(hull, pts, k, objective) for objective, k in cases] == whole


def test_umax_rejects_a_hull_too_large_for_max_kgon():
    # Before its h x h tables: a 5000-gon would need 400 MB and minutes.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"h = 5000 vertices; max_kgon takes at most 4096"):
        umax(_regular(5000), 3, Objective.PERIMETER)
    assert time.perf_counter() - start < 5.0
    assert umax(_regular(5000), 5000, Objective.AREA).vertex_count == 5000  # k >= h: the hull


def test_umax_with_n_at_least_hull_size_is_the_hull():
    inner = sample_batch(BetaParams(0.0), 8, SeedPolicy(43), 0)
    pts = np.vstack([inner, 2.0 * SQUARE])
    hull = convex_hull(pts).vertex_indices
    assert hull == (8, 9, 10, 11)
    for objective in Objective:
        for n in (4, 5, 12):
            fast = umax(pts, n, objective)
            assert fast.vertex_indices == hull
            slow = umax_bruteforce(pts[list(hull)], 4, objective)
            assert fast.value == slow.value
            if n <= 5:
                assert umax_bruteforce(pts, n, objective).value == fast.value


@pytest.mark.parametrize("objective", list(Objective))
def test_umax_tie_on_grid_returns_an_optimal_convex_cycle(objective):
    # Several triangles of the 3x3 grid tie exactly; umax may return any of
    # them, but it must be a strictly convex CCW triangle of the best value.
    pts = np.array([(x, y) for x in range(3) for y in range(3)], dtype=float)
    fast = umax(pts, 3, objective)
    slow = umax_bruteforce(pts, 3, objective)
    assert fast.vertex_count == 3
    _assert_strictly_convex_ccw(PolygonChain(fast.vertex_indices), pts)
    again = _rescore(fast.vertex_indices, pts, objective)
    assert again == fast.value
    assert again == pytest.approx(slow.value, rel=1e-15, abs=0.0)


def test_max_kgon_validation():
    hull = convex_hull(SQUARE)
    with pytest.raises(ValueError):
        max_kgon(hull, SQUARE, 1, Objective.AREA)


@pytest.mark.parametrize("objective", [Objective.PERIMETER, Objective.AREA])
def test_umax_equals_bruteforce_random_instances(objective):
    rng = np.random.default_rng(314)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        beta = float(rng.choice([-0.5, 0.0, 2.0]))
        N = int(rng.integers(n, 13))
        trial = int(rng.integers(0, 2**31))
        pts = sample_batch(BetaParams(beta), N, SeedPolicy(271828), trial)
        fast = umax(pts, n, objective)
        slow = umax_bruteforce(pts, n, objective)
        assert fast.value == pytest.approx(slow.value, rel=1e-9, abs=1e-12)
        assert fast.vertex_indices == slow.vertex_indices


@st.composite
def _integer_clouds(draw):
    """Up to 10 points of a small integer grid (duplicates and collinear runs
    abound), shifted by an integer offset and scaled by 2^k, and a subset size.

    Every coordinate is a small integer times 2^k, so every shoelace sum is
    exact and the area must agree to the last bit.
    """
    side = draw(st.integers(0, 9))
    coord = st.integers(0, side)
    cloud = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=10))
    shift = draw(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)))
    k = draw(st.integers(-30, 30))
    n = draw(st.integers(2, len(cloud)))
    return (np.array(cloud, dtype=float) + shift) * 2.0**k, n


# Values only: on exact ties umax and the oracle may pick different cycles.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(_integer_clouds(), st.sampled_from(list(Objective)))
def test_umax_value_equals_bruteforce_on_integer_clouds(case, objective):
    pts, n = case
    fast = umax(pts, n, objective).value
    slow = umax_bruteforce(pts, n, objective).value
    if objective is Objective.AREA:
        assert fast == slow
    else:
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)


def test_umax_single_subset():
    pts = sample_batch(BetaParams(0.0), 5, SeedPolicy(5), 0)
    r = umax(pts, 5, Objective.PERIMETER)
    hull = convex_hull(pts)
    assert r.value == pytest.approx(polygon_perimeter(hull, pts), rel=1e-12)


def test_umax_inscribed_regular_polygon():
    N = 12
    pts = np.array(
        [[math.cos(2 * math.pi * k / N), math.sin(2 * math.pi * k / N)] for k in range(N)]
    )
    r = umax(pts, 3, Objective.PERIMETER)
    assert r.value == pytest.approx(3.0 * math.sqrt(3.0), abs=1e-9)
    assert list(np.diff(sorted(r.vertex_indices))) == [4, 4]


def test_umax_monotone_in_subset_size():
    pts = sample_batch(BetaParams(0.0), 60, SeedPolicy(8), 0)
    for objective in Objective:
        values = [umax(pts, n, objective).value for n in range(2, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_umax_upper_bounds_inscribed_ngon():
    pts = sample_batch(BetaParams(-0.5), 200, SeedPolicy(21), 0)
    for n in range(3, 7):
        per = umax(pts, n, Objective.PERIMETER).value
        area = umax(pts, n, Objective.AREA).value
        assert per <= 2.0 * n * math.sin(math.pi / n) + 1e-9
        assert area <= 0.5 * n * math.sin(2.0 * math.pi / n) + 1e-9


def test_umax_reevaluation_consistency():
    pts = sample_batch(BetaParams(2.0), 80, SeedPolicy(31), 0)
    for objective in Objective:
        r = umax(pts, 5, objective)
        chain = PolygonChain(r.vertex_indices, degenerate=r.vertex_count < 3)
        again = (
            polygon_perimeter(chain, pts)
            if objective is Objective.PERIMETER
            else polygon_area(chain, pts)
        )
        assert again == pytest.approx(r.value, rel=1e-12)


def test_umax_rotation_invariance():
    pts = sample_batch(BetaParams(0.0), 150, SeedPolicy(77), 0)
    theta = 0.7342
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    for objective in Objective:
        v0 = umax(pts, 4, objective).value
        v1 = umax(pts @ rot.T, 4, objective).value
        assert abs(v0 - v1) < 1e-9


def test_umax_validation():
    pts = sample_batch(BetaParams(0.0), 4, SeedPolicy(1), 0)
    with pytest.raises(ValueError):
        umax(pts, 5, Objective.AREA)
    with pytest.raises(ValueError):
        umax(pts, 1, Objective.AREA)


def test_bruteforce_guard_and_duplicates():
    pts = sample_batch(BetaParams(0.0), 50, SeedPolicy(3), 0)
    with pytest.raises(ValueError):
        umax_bruteforce(pts, 6, Objective.AREA)  # C(50,6) > 1e6
    small = np.vstack([pts[:6], pts[:2]])  # duplicates contribute nothing
    r = umax_bruteforce(small, 3, Objective.PERIMETER)
    assert r.value == pytest.approx(umax(small, 3, Objective.PERIMETER).value, rel=1e-12)


def test_umax_collinear_inputs():
    pts = np.array([[x, 0.5 * x] for x in np.linspace(-0.9, 0.9, 7)])
    per = umax(pts, 3, Objective.PERIMETER)
    span = math.hypot(1.8, 0.9)
    assert per.value == pytest.approx(2.0 * span, rel=1e-12)
    assert umax(pts, 3, Objective.AREA).value == 0.0


def test_objective_parse():
    assert Objective.parse("perimeter") is Objective.PERIMETER
    assert Objective.parse(" AREA ") is Objective.AREA
    with pytest.raises(ValueError):
        Objective.parse("volume")


def test_umax_pairs():
    # n=2: max perimeter is twice the diameter of the point set; area is 0
    pts = sample_batch(BetaParams(0.0), 40, SeedPolicy(63), 0)
    per = umax(pts, 2, Objective.PERIMETER)
    diam = 0.0
    for i in range(len(pts)):
        d = np.hypot(pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1])
        diam = max(diam, float(np.max(d)))
    assert per.value == pytest.approx(2.0 * diam, rel=1e-12)
    assert per.vertex_count == 2
    assert umax(pts, 2, Objective.AREA).value == 0.0
