import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betapoly.geometry import (
    Objective,
    PolygonChain,
    convex_hull,
    hull_functional,
    max_kgon,
    polygon_area,
    polygon_perimeter,
    umax,
    umax_bruteforce,
)
from betapoly.sampler import BetaParams, SeedPolicy, sample_batch

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


def test_convex_hull_prefilter_agrees_with_direct_chain():
    # 130 points exercises the extreme-octagon pre-filter; the same set fed
    # in below the threshold must give the identical hull.
    pts = sample_batch(BetaParams(-0.5), 130, SeedPolicy(17), 0)
    full = convex_hull(pts)
    from betapoly.geometry import _monotone_chain, _rotate_min_first

    direct = _rotate_min_first(_monotone_chain(pts))
    assert list(full.vertex_indices) == direct


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
