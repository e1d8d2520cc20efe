import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from betapoly import geometry, sampler
from betapoly.geometry import (
    Objective,
    PolygonChain,
    _far_count,
    _monotone_chain,
    _rotate_min_first,
    convex_hull,
    hull_functional,
    max_kgon,
    max_kgons,
    polygon_area,
    polygon_perimeter,
    threshold_radius,
    umax,
    umax_bruteforce,
    uniform_hulls,
)
from betapoly.limits import extremal_value
from betapoly.montecarlo import SimConfig, run_trials
from betapoly.sampler import (
    BetaParams,
    SeedPolicy,
    points_from_uniforms,
    radius_uniform_floor,
    sample_batch,
    select_uniforms,
    uniform_chunks,
)

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


def _assert_convex_hull_exact(pts):
    """The circle-filtered elimination equals the monotone chain run on every point."""
    assert convex_hull(pts).vertex_indices == tuple(_rotate_min_first(_monotone_chain(pts)))


def _convex_hull_kept(monkeypatch, pts):
    """How many points ``convex_hull(pts)``'s circle test keeps: the size of its last hull's set."""
    return _convex_hull_sets(monkeypatch, lambda: convex_hull(pts))[-1]


def _convex_hull_sets(monkeypatch, run):
    """Sizes of the point sets that the ``convex_hull`` calls of ``run()`` hand ``_hulls``.

    Only ``convex_hull``'s calls count, not those of ``uniform_hulls``.
    """
    sizes = []
    hulls, hull = geometry._hulls, geometry._convex_hull

    def counting(xy, counts, centre):
        sizes.extend(counts)
        return hulls(xy, counts, centre)

    def hooked(pts):
        with monkeypatch.context() as m:
            m.setattr(geometry, "_hulls", counting)
            return hull(pts)

    with monkeypatch.context() as m:
        m.setattr(geometry, "_convex_hull", hooked)
        run()
    return sizes


def _chain_sizes(monkeypatch, run):
    """Sizes of the point sets of the monotone chains that ``run()`` calls in ``geometry``."""
    sizes = []
    chain = geometry._monotone_chain

    def counting(pts):
        sizes.append(len(pts))
        return chain(pts)

    with monkeypatch.context() as m:
        m.setattr(geometry, "_monotone_chain", counting)
        run()
    return sizes


def _hull_stages(monkeypatch, run):
    """Pick sizes of each elimination batch ``run()`` makes, and sizes of the chains it runs."""
    batches = []
    stage = geometry._far_hulls

    def recording(params, picks):
        if picks:
            batches.append([len(keep) for keep, _, _ in picks])
        return stage(params, picks)

    with monkeypatch.context() as m:
        m.setattr(geometry, "_far_hulls", recording)
        chains = _chain_sizes(monkeypatch, run)
    return batches, chains


def _stream_blocks(seed, stream, N):
    """The angle and radius blocks of ``N`` points of a stream, whole."""
    ((angle_u, radius_u),) = uniform_chunks(SeedPolicy(seed), stream, N, size=N)
    return angle_u, radius_u


def _chunked_selectors(monkeypatch, chunk):
    """``select_uniforms`` on blocks it reads in ``chunk``-point pieces.

    Patches ``sampler.uniform_chunks`` to serve the blocks passed in place of
    a seed policy, so the selector's own index offsets across the pieces are
    what runs.  Returns ``make(angle_u, radius_u)``, the blocks' selector.
    """

    def pieces(blocks, stream, count, skip=0, size=None):
        for lo in range(0, count, chunk):
            yield tuple(u[lo : lo + chunk].copy() for u in blocks)

    monkeypatch.setattr(sampler, "uniform_chunks", pieces)
    return lambda angle_u, radius_u: functools.partial(
        select_uniforms, (angle_u, radius_u), 0, len(radius_u)
    )


def _assert_uniform_hull_exact(params, angle_u, radius_u, make=helpers.selector):
    """``uniform_hulls`` of the blocks, selected by ``make``'s selector, equals the full monotone chain."""
    pts = points_from_uniforms(params, angle_u.copy(), radius_u.copy())
    select = make(angle_u, radius_u)
    keep, kept_pts, hull = uniform_hulls(params, len(radius_u), [select])[0]
    assert np.array_equal(kept_pts, pts[keep])
    assert tuple(int(keep[i]) for i in hull.vertex_indices) == tuple(
        _rotate_min_first(_monotone_chain(pts))
    )
    return keep


def test_convex_hull_prefilter_agrees_with_direct_chain(monkeypatch):
    # At 130 points the circle filter keeps fewer points; the monotone chain
    # run on the whole set must give the identical hull.
    pts = sample_batch(BetaParams(-0.5), 130, SeedPolicy(17), 0)
    assert _convex_hull_kept(monkeypatch, pts) < len(pts)
    _assert_convex_hull_exact(pts)


@pytest.mark.parametrize("N, reads", [(64_000, 1), (1000, 2)])
def test_uniform_hull_chains_the_far_set_alone_when_it_holds_every_vertex(monkeypatch, N, reads):
    # At seed 5, beta = 0, the floor of the far set's disk clears the far
    # set's own floor at N = 64 000 but not at N = 1 000 (3 sqrt(N) far
    # points hold the hull in ~80% of trials there; seed 42 is one of them).
    # So the trial selects once, or once more for the widened set; each
    # selection is one elimination batch, and no monotone chain runs.
    blocks = _stream_blocks(5, 0, N)
    params = BetaParams(0.0)
    check = functools.partial(_assert_uniform_hull_exact, params, *blocks)
    batches, chains = _hull_stages(monkeypatch, check)
    assert len(batches) == reads and batches == sorted(batches) and not chains


@pytest.mark.parametrize("N, chains", [(4000, 1), (1000, 2)])
def test_convex_hull_chains_the_far_set_alone_when_it_holds_every_vertex(monkeypatch, N, chains):
    pts = sample_batch(BetaParams(0.0), N, SeedPolicy(42), 0)
    sizes = _convex_hull_sets(monkeypatch, lambda: _assert_convex_hull_exact(pts))
    assert len(sizes) == chains and sizes[0] == _far_count(N) and sizes == sorted(sizes)


@pytest.mark.parametrize("beta", [-0.99, 0.0, 2.0])
@pytest.mark.parametrize("N", [128, 1000, 20_000])
def test_prefilter_exact_on_samples(monkeypatch, beta, N):
    pts = sample_batch(BetaParams(beta), N, SeedPolicy(23), N)
    _assert_convex_hull_exact(pts)
    blocks = _stream_blocks(23, N, N)
    keep = _assert_uniform_hull_exact(BetaParams(beta), *blocks)
    if N > 128 and beta >= 0.0:  # at beta = -0.99 most points are hull vertices
        assert _convex_hull_kept(monkeypatch, pts) < N // 2
        assert len(keep) < N // 2


@pytest.mark.parametrize(
    "shift, scale",
    [((1e3, -7e2), 1.0), ((0.0, 0.0), 1e-8), ((0.0, 0.0), 1e8), ((-3e-8, 5e-8), 1e-8)],
)
def test_prefilter_exact_off_centre_and_rescaled(monkeypatch, shift, scale):
    for trial in range(3):
        pts = sample_batch(BetaParams(0.0), 3000, SeedPolicy(29), trial) * scale + shift
        _assert_convex_hull_exact(pts)
        assert _convex_hull_kept(monkeypatch, pts) < 1500


def test_prefilter_exact_on_cocircular_polygon_with_interior_points():
    ring = _regular(256)
    inner = sample_batch(BetaParams(0.0), 400, SeedPolicy(31), 0) * 0.9
    clouds = (np.vstack([ring, inner]), np.vstack([inner, ring]), np.vstack([inner, ring]) + 5.0)
    for pts in clouds + (np.asfortranarray(clouds[1]),):  # any memory layout
        _assert_convex_hull_exact(pts)
        assert len(convex_hull(pts).vertex_indices) == 256
    # The shared hull stage takes any layout: Fortran order, a strided view.
    pts = clouds[1]
    expected = geometry._hulls(pts, [len(pts)], (0.0, 0.0))
    for layout in (np.asfortranarray(pts), np.hstack([pts, pts])[:, :2]):
        assert geometry._hulls(layout, [len(pts)], (0.0, 0.0)) == expected


def test_prefilter_keeps_smallest_index_of_duplicated_extremes(monkeypatch):
    # Copies of every (every 8th) hull vertex after the originals and of
    # every 2nd (16th) before them: convex_hull builds two hulls at 500
    # points, and one, of the far set alone, at 20 000.
    for N, step, chains in ((500, 1, 2), (20_000, 8, 1)):
        pts = sample_batch(BetaParams(0.0), N, SeedPolicy(37), 0)
        hull = list(convex_hull(pts).vertex_indices)
        dup = np.vstack([pts[hull[:: 2 * step]], pts, pts[hull[::step]]])
        assert len(_convex_hull_sets(monkeypatch, lambda: _assert_convex_hull_exact(dup))) == chains
        for i in convex_hull(dup).vertex_indices:
            same = np.flatnonzero(np.all(dup == dup[i], axis=1))
            assert i == same.min() and (len(same) >= 2 or step > 1)


def test_prefilter_keeps_all_when_centre_is_outside_the_sub_hull(monkeypatch):
    # An arc of 200 hull vertices plus the origin: the points farthest from
    # the bounding-box midpoint hug the x-axis, and their hull misses it.
    angles = np.linspace(0.0, math.pi / 3.0, 200)
    pts = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]), [[0.0, 0.0]]])
    assert _convex_hull_kept(monkeypatch, pts) == len(pts)
    assert len(convex_hull(pts).vertex_indices) == len(pts)
    _assert_convex_hull_exact(pts)


def _arc_cloud(nearer):
    """The uniforms of an arc of 200 points and of ``nearer`` points in its wedge.

    The arc's points have one radius (the largest uniform below 1) and
    span 60 degrees.
    """
    angle_u = np.concatenate([np.linspace(0.0, 1.0 / 6.0, 200), np.linspace(0.02, 0.14, nearer)])
    radius_u = np.concatenate([np.full(200, np.nextafter(1.0, 0.0)), np.linspace(0.2, 0.8, nearer)])
    return angle_u, radius_u


def test_prefilter_exact_keeps_all_when_origin_is_outside_the_far_hull():
    # The far points' hull misses the origin, so the radius filter keeps
    # every point.
    angle_u, radius_u = _arc_cloud(100)
    keep = _assert_uniform_hull_exact(BetaParams(0.0), angle_u, radius_u)
    assert np.array_equal(keep, np.arange(len(radius_u)))


def _mixed_batch(N):
    """Uniforms of six trials of ``N`` points each, each a different case of the hull stage."""
    held, replayed = _stream_blocks(42, 0, N), _stream_blocks(5, 0, N)
    # Copies of every hull vertex of seed 37's points at the first and the
    # last h indices that are not vertices: before and after the originals.
    copies = _stream_blocks(37, 0, N)
    keep, _, hull = uniform_hulls(BetaParams(0.0), N, [helpers.selector(*copies)])[0]
    ring = keep[list(hull.vertex_indices)]
    others = np.setdiff1d(np.arange(N), ring)
    for u in copies:
        u[others[: len(ring)]] = u[others[-len(ring) :]] = u[ring]
    # Four points at each angle uniform, at four radii.
    one_angle = _stream_blocks(11, 0, N)
    one_angle[0][:] = np.repeat(one_angle[0][::4], 4)[:N]
    # A regular 512-gon of angle uniforms k / 512 (its coordinates tie in
    # absolute value) at one radius, and points inside it.
    rng = np.random.default_rng(13)
    polygon = (
        np.concatenate([np.arange(512) / 512, rng.random(N - 512)]),
        np.concatenate([np.full(512, np.nextafter(1.0, 0.0)), 0.9 * rng.random(N - 512)]),
    )
    return [held, replayed, _arc_cloud(N - 200), copies, one_angle, polygon]


@pytest.mark.parametrize("beta", [-0.9, 0.0, 2.0])
def test_uniform_hulls_of_a_mixed_batch_equal_the_chain_of_each_trial(monkeypatch, beta):
    # One call on six trials: the far set holds the hull; the trial selects
    # again (seed 5); the far hull misses the origin, so every point is
    # selected again; copies of hull vertices; four points at each angle; a
    # regular polygon with float ties.  Each trial's hull is the monotone
    # chain of all its points, and what the trial gets alone.  No trial
    # runs the chain.
    N, params = 1_000, BetaParams(beta)
    batch = _mixed_batch(N)
    reads, hulls = [], []

    def counted(b, a, r):
        select = helpers.selector(a, r)

        def reading(floor):
            reads.append(b)
            return select(floor)

        return reading

    selectors = [counted(b, a, r) for b, (a, r) in enumerate(batch)]
    chains = _chain_sizes(monkeypatch, lambda: hulls.extend(uniform_hulls(params, N, selectors)))
    assert chains == []
    if beta == 0.0:
        assert sorted(reads) == [0, 1, 1, 2, 2, 3, 4, 5]
    for (angle_u, radius_u), (keep, kept_pts, hull) in zip(batch, hulls):
        pts = points_from_uniforms(params, angle_u.copy(), radius_u.copy())
        assert np.array_equal(kept_pts, pts[keep])
        mapped = tuple(int(keep[i]) for i in hull.vertex_indices)
        assert mapped == tuple(_rotate_min_first(_monotone_chain(pts)))
        alone = uniform_hulls(params, N, [helpers.selector(angle_u, radius_u)])[0]
        assert np.array_equal(alone[0], keep) and np.array_equal(alone[1], kept_pts)
        assert alone[2] == hull


@pytest.mark.parametrize("beta", [-0.9, 0.0, 2.0])
def test_uniform_hulls_equal_the_chain_on_seeded_far_sets(monkeypatch, beta):
    # 700 trials of 250 points at each beta, in batches as run_trials makes
    # them: each hull is the monotone chain of the trial's kept points.
    params, policy, N = BetaParams(beta), SeedPolicy(101), 250
    for first in range(0, 700, 262):
        trials = range(first, min(first + 262, 700))
        selectors = [functools.partial(select_uniforms, policy, t, N) for t in trials]
        for keep, pts, hull in uniform_hulls(params, N, selectors):
            assert hull.vertex_indices == tuple(_rotate_min_first(_monotone_chain(pts)))


def test_uniform_hulls_equal_convex_hull_on_near_duplicate_clouds():
    # 300 clouds at beta = -0.99 with points one ulp of angle uniform from
    # others, at radius uniforms near 1, one uniform_hulls call each.
    params, rng = BetaParams(-0.99), np.random.default_rng(7)
    for _ in range(300):
        N = rng.integers(130, 400)
        a = rng.random(N)
        r = rng.random(N) ** 0.1
        k = rng.integers(1, 20)
        i = rng.integers(0, N, k)
        j = rng.integers(0, N, k)
        a[j] = np.nextafter(a[i], 2.0)
        r[j] = rng.random(k) ** 0.05
        keep, _, hull = uniform_hulls(params, N, [helpers.selector(a, r)])[0]
        pts = points_from_uniforms(params, a, r)
        mapped = tuple(int(keep[v]) for v in hull.vertex_indices)
        assert mapped == convex_hull(pts).vertex_indices
        assert mapped == tuple(_rotate_min_first(_monotone_chain(pts)))


def test_uniform_hull_of_a_ray_matches_convex_hull_in_few_passes(monkeypatch):
    # 10^5 points at one angle: both entry points keep the same vertices;
    # rounding may keep other vertices than the monotone chain's, but not
    # other values; and halving each run of bent vertices bounds the passes.
    params, N = BetaParams(0.0), 100_000
    a, r = np.full(N, 0.125), np.random.default_rng(3).random(N)
    calls = []
    cross = geometry._cross

    def counting(o, p, q):
        calls.append(len(p))
        return cross(o, p, q)

    with monkeypatch.context() as m:
        m.setattr(geometry, "_cross", counting)
        keep, _, hull = uniform_hulls(params, N, [helpers.selector(a, r)])[0]
    assert len(calls) <= 64
    pts = points_from_uniforms(params, a, r)
    ray = PolygonChain(tuple(int(keep[i]) for i in hull.vertex_indices))
    assert ray == convex_hull(pts)
    chain = helpers.chain_hull(pts)
    perimeter = polygon_perimeter(chain, pts)
    assert polygon_perimeter(ray, pts) == pytest.approx(perimeter, rel=1e-12, abs=0.0)
    assert abs(polygon_area(ray, pts)) < 1e-12 and abs(polygon_area(chain, pts)) < 1e-12


@st.composite
def _uniform_clouds(draw):
    """A beta and the angle and radius uniforms of 1 to 4 clouds of one size, 3 to 400 points.

    In each cloud some radius uniforms repeat a few levels, 0 always among
    them, so some radii are equal; some points are exact copies of others;
    and the angles span either a full turn or a one-sided arc, whose far
    points' hull misses the origin.
    """
    beta = draw(st.sampled_from([-0.99, -0.5, 0.0, 2.0]))
    N = draw(st.integers(3, 400))
    clouds = []
    for _ in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        arc = draw(st.sampled_from([1.0, 1.0 / 6.0, 0.5]))
        angle_u = rng.uniform(0.0, arc, N)
        radius_u = rng.random(N) ** draw(st.sampled_from([0.1, 0.5, 1.0, 4.0]))
        levels = [0.0] + draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))
        repeated = rng.random(N) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        radius_u[repeated] = rng.choice(levels, int(repeated.sum()))
        copies = rng.integers(0, N, draw(st.integers(0, 20)))
        originals = rng.integers(0, N, len(copies))
        angle_u[copies], radius_u[copies] = angle_u[originals], radius_u[originals]
        clouds.append((angle_u, radius_u))
    return BetaParams(beta), clouds


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_uniform_clouds())
def test_uniform_hull_equals_convex_hull_of_the_whole_cloud(batch):
    # Each cloud alone, and all of them as one batch.
    params, clouds = batch
    N = len(clouds[0][1])
    blocks = [(angle_u.copy(), radius_u.copy()) for angle_u, radius_u in clouds]
    selectors = [helpers.selector(angle_u, radius_u) for angle_u, radius_u in clouds]
    together = uniform_hulls(params, N, selectors)
    for (angle_u, radius_u), block, select, hulls in zip(clouds, blocks, selectors, together):
        pts = points_from_uniforms(params, angle_u.copy(), radius_u.copy())
        keep, kept_pts, hull = uniform_hulls(params, N, [select])[0]
        assert np.array_equal(angle_u, block[0]) and np.array_equal(radius_u, block[1])
        assert np.array_equal(kept_pts, pts[keep])
        mapped = tuple(int(keep[i]) for i in hull.vertex_indices)
        assert mapped == convex_hull(pts).vertex_indices
        assert mapped == tuple(_rotate_min_first(_monotone_chain(pts)))
        assert np.array_equal(hulls[0], keep) and np.array_equal(hulls[1], kept_pts)
        assert hulls[2] == hull


@pytest.mark.parametrize("chunk", [97, 128, 1_000])
def test_uniform_hull_keeps_the_smallest_copy_across_chunk_boundaries(monkeypatch, chunk):
    # Copies of hull vertices before and after the originals, each in
    # another chunk of select_uniforms' read, and the trial selects once
    # (20 000 points) or twice (500 at seed 8): every hull vertex is the
    # smallest index of its copies, and the elimination, which leaves the
    # larger copies out, needs no chain.
    params = BetaParams(0.0)
    make = _chunked_selectors(monkeypatch, chunk)
    for N, step, reads, seed in ((500, 1, 2, 8), (20_000, 8, 1, 37)):
        blocks = _stream_blocks(seed, 0, N)
        keep, _, hull = uniform_hulls(params, N, [make(*blocks)])[0]
        ring = keep[list(hull.vertex_indices)]
        dup = [np.concatenate([u[ring[:: 2 * step]], u, u[ring[::step]]]) for u in blocks]
        check = functools.partial(_assert_uniform_hull_exact, params, *dup, make)
        batches, chains = _hull_stages(monkeypatch, check)
        assert len(batches) == reads and not chains
        keep, _, hull = uniform_hulls(params, len(dup[1]), [make(*dup)])[0]
        for i in keep[list(hull.vertex_indices)]:
            same = np.flatnonzero((dup[0] == dup[0][i]) & (dup[1] == dup[1][i]))
            assert i == same.min() and (len(same) >= 2 or step > 1)


def test_uniform_hull_keeps_the_smallest_of_two_adjacent_copies():
    # A hull vertex and its copy right after it.
    params = BetaParams(0.0)
    angle_u, radius_u = _stream_blocks(41, 0, 2_000)
    keep, _, hull = uniform_hulls(params, 2_000, [helpers.selector(angle_u, radius_u)])[0]
    v = int(keep[hull.vertex_indices[len(hull.vertex_indices) // 2]])
    dup = [np.insert(u, v + 1, u[v]) for u in (angle_u, radius_u)]
    keep = _assert_uniform_hull_exact(params, *dup)
    assert v in keep and v + 1 in keep
    keep, _, hull = uniform_hulls(params, 2_001, [helpers.selector(*dup)])[0]
    assert v in keep[list(hull.vertex_indices)] and v + 1 not in keep[list(hull.vertex_indices)]


def test_the_oracle_shares_no_hull_routine_with_umax(monkeypatch):
    # The oracle builds its subset hulls with the monotone chain alone, and
    # convex_hull, umax and the trials with the elimination alone.
    pts = sample_batch(BetaParams(0.0), 300, SeedPolicy(5), 0)

    def broken(*args):
        raise AssertionError("this hull routine must not run")

    with monkeypatch.context() as m:
        m.setattr(geometry, "_monotone_rings", broken)
        umax_bruteforce(pts[:12], 4, Objective.AREA)
    with monkeypatch.context() as m:
        m.setattr(geometry, "_monotone_chain", broken)
        convex_hull(pts)
        umax(pts, 3, Objective.PERIMETER)
        uniform_hulls(BetaParams(0.0), 300, [helpers.selector(*_stream_blocks(5, 0, 300))])
        run_trials(SimConfig(Objective.AREA, 3, 0.0, (40, 300), 2, master_seed=5), threads=1)


def test_prefilter_falls_back_on_collinear_cloud(monkeypatch):
    t = np.random.default_rng(41).uniform(-1.0, 1.0, 300)
    pts = np.column_stack([t, 0.5 * t + 0.25])
    assert _convex_hull_kept(monkeypatch, pts) == len(pts)
    hull = convex_hull(pts)
    assert hull.degenerate and sorted(hull.vertex_indices) == sorted([t.argmin(), t.argmax()])
    _assert_convex_hull_exact(pts)


def test_polygon_perimeter_examples():
    chain = PolygonChain((0, 1, 2, 3))
    assert polygon_perimeter(chain, SQUARE) == pytest.approx(4.0 * math.sqrt(2.0))
    tri_pts = np.array(
        [[math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)] for k in range(3)]
    )
    assert polygon_perimeter(PolygonChain((0, 1, 2)), tri_pts) == pytest.approx(
        3.0 * math.sqrt(3.0)
    )
    assert polygon_perimeter(PolygonChain((0,)), SQUARE) == 0.0
    two = PolygonChain((0, 2))
    assert polygon_perimeter(two, SQUARE) == pytest.approx(4.0)  # twice the segment
    # The cyclic sum gives the degenerate conventions exactly.
    pts = np.array([[0.1, -0.7], [1e-12, 3.3e5], [0.3, 0.1]])
    for i, j in ((0, 1), (1, 2), (2, 0), (1, 1)):
        a, b = pts[i], pts[j]
        expected = 2.0 * math.hypot(b[0] - a[0], b[1] - a[1])
        assert polygon_perimeter(PolygonChain((i, j)), pts) == expected


def test_polygon_area_examples():
    assert polygon_area(PolygonChain((0, 1, 2, 3)), SQUARE) == pytest.approx(2.0)
    tri_pts = np.array(
        [[math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)] for k in range(3)]
    )
    assert polygon_area(PolygonChain((0, 1, 2)), tri_pts) == pytest.approx(
        3.0 * math.sqrt(3.0) / 4.0
    )
    assert polygon_area(PolygonChain((0, 2)), SQUARE) == 0.0
    # Degenerate chains have area +0.0 exactly, the sign of zero included.
    pts = np.array([[0.1, -0.7], [-1e-12, 3.3e5], [0.3, 0.1]])
    for chain in ((0,), (1,), (0, 1), (1, 2), (2, 0), (1, 1)):
        area = polygon_area(PolygonChain(chain), pts)
        assert area == 0.0 and math.copysign(1.0, area) == 1.0


def test_measure_equals_the_per_edge_loops():
    # The reference: the per-edge loops on numpy scalars, whose bits every
    # polygon value must keep, the sign of a degenerate zero included.
    def perimeter_loop(idx, pts):
        total = 0.0
        for i in range(len(idx)):
            a = pts[idx[i]]
            b = pts[idx[(i + 1) % len(idx)]]
            total += math.hypot(b[0] - a[0], b[1] - a[1])
        return total

    def area_loop(idx, pts):
        total = 0.0
        for i in range(len(idx)):
            ax, ay = pts[idx[i]]
            bx, by = pts[idx[(i + 1) % len(idx)]]
            total += ax * by - ay * bx
        return 0.5 * total

    rng = np.random.default_rng(27)
    m = 40
    x = np.linspace(-1.0, 1.0, m)
    clouds = {
        "uniform": rng.uniform(-1.0, 1.0, (m, 2)),
        "integer": rng.integers(-5, 6, (m, 2)).astype(float),
        "near-collinear": np.column_stack((x, 0.3 * x + rng.uniform(-1e-15, 1e-15, m))),
        "huge": 1e150 * rng.uniform(-1.0, 1.0, (m, 2)),
        "tiny": 1e-150 * rng.uniform(-1.0, 1.0, (m, 2)),
    }
    for name, pts in clouds.items():
        cycles = [(), (3,), (3, 7), (7, 7), (0, 1, 2), (0, 5, 5, 9), (4, 9, 4)]
        cycles += [tuple(range(m)), tuple(rng.permutation(m).tolist())]
        cycles.append(convex_hull(pts).vertex_indices)
        for cycle in cycles:
            for objective, public, loop in (
                (Objective.PERIMETER, polygon_perimeter, perimeter_loop),
                (Objective.AREA, polygon_area, area_loop),
            ):
                want = float(loop(cycle, pts)).hex()
                assert float(geometry._measure(pts, cycle, objective)).hex() == want, (name, cycle)
                assert float(public(PolygonChain(cycle), pts)).hex() == want, (name, cycle)


def test_max_kgon_and_the_oracle_check_their_points_once(monkeypatch):
    sizes = []
    check = geometry.as_points_array

    def counting(points):
        pts = check(points)
        sizes.append(len(pts))
        return pts

    pts = sample_batch(BetaParams(0.0), 300, SeedPolicy(5), 0)
    hull = convex_hull(pts)
    h = len(hull.vertex_indices)
    monkeypatch.setattr(geometry, "as_points_array", counting)
    for objective in Objective:
        for k in (3, h):  # the DP's cycle, and the hull itself
            sizes.clear()
            max_kgon(hull, pts, k, objective)
            assert sizes == [300]
        sizes.clear()
        umax(pts, 3, objective)
        assert sizes == [300]
    cloud = pts[:9]
    for objective in Objective:
        sizes.clear()
        umax_bruteforce(cloud, 4, objective)
        assert sizes == [9]  # the subsets' hulls are the chain's, on the checked cloud
    # A trial's points come from points_from_uniforms, finite by construction.
    sizes.clear()
    run_trials(SimConfig(Objective.PERIMETER, 3, 0.0, (250, 1000), 3, master_seed=5), threads=1)
    assert sizes == []


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
    ref = np.array([measure(helpers.chain_hull(t), t) for t in tuples])
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
    chain = PolygonChain(tuple(cycle))
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
    monkeypatch.setattr(geometry, "_DP_BLOCK", 1)  # tiles of one column and one anchor
    assert [max_kgon(hull, pts, k, objective) for objective, k in cases] == whole


def test_max_kgon_column_blocks_keep_the_cycle(monkeypatch):
    # A step is cut into blocks of at most _DP_BLOCK // len(predecessors)
    # successor columns, one column at h = 300 with a block of 300, and
    # each block weighs only the predecessors below its last column.
    # Regular polygons tie in floats, so a block that changed a
    # predecessor's first-maximum rule would change their cycle.
    clouds = [_regular(h) for h in (37, 120, 300)]
    clouds.append(sample_batch(BetaParams(0.0), 20_000, SeedPolicy(53), 0))
    cases = [
        (convex_hull(pts), pts, k, objective)
        for pts in clouds
        for k in (3, 5, 8)
        for objective in Objective
    ]
    assert max(len(hull.vertex_indices) for hull, *_ in cases) == 300
    whole = [max_kgon(*case) for case in cases]  # columns unsplit: 299^2 < _DP_BLOCK
    for block in (300, 4_000):
        monkeypatch.setattr(geometry, "_DP_BLOCK", block)
        assert [max_kgon(*case) for case in cases] == whole


@pytest.mark.parametrize("objective", list(Objective))
def test_max_kgon_memory_stays_below_a_weight_table(objective):
    # Weights are computed from the coordinates a tile at a time, so no
    # h x h array is held: at h = 2000 one anchor's step has 4e6 cells, and
    # the second pass at k = 3 bisects its ~667 anchors rather than holding
    # DP layers of (h / 3)^2 cells for all of them.  A batch
    # of a 2000-gon and a 1500-gon keeps the bound: stacked at k = 12, where
    # a step's columns are cut for both hulls, and one hull at a time at
    # k = 3.  Stacked there, they would peak about as high (10.5 and 8.7
    # MiB against 10.0 and 8.2), but pad the 1500-gon's rows to the
    # 2000-gon's and take 15-30% longer.
    h = 2000
    hull = PolygonChain(tuple(range(h)))
    for k in (3, 12):
        for batch in (False, True):
            tracemalloc.start()
            try:
                if batch:
                    cases = [(hull, 0.5 * _regular(h))]
                    cases.append((PolygonChain(tuple(range(1500))), _regular(1500)))
                    results = max_kgons(cases, k, objective)
                else:
                    results = [max_kgon(hull, _regular(h), k, objective)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [result.vertex_count for result in results] == [k] * len(results)
            assert peak < 0.75 * h * h * 8, (k, batch)


def test_max_kgon_keeps_its_cycles_on_a_large_hull():
    # h = 1250 at beta = -0.9: steps are cut into column blocks and the
    # second pass runs hundreds of anchors.
    pts = sample_batch(BetaParams(-0.9), 4000, SeedPolicy(11), 0)
    assert len(convex_hull(pts).vertex_indices) == 1250
    pins = [
        (Objective.PERIMETER, 3, 5.196152338747057, (2183, 3434, 3048)),
        (Objective.PERIMETER, 5, 5.877851988220887, (1292, 3583, 3364, 2588, 1729)),
        (Objective.AREA, 3, 1.2990380217237538, (2183, 3434, 3048)),
        (Objective.AREA, 5, 2.3776405503157316, (1810, 2460, 1864, 3137, 3012)),
    ]
    for objective, k, value, cycle in pins:
        result = umax(pts, k, objective)
        assert (result.value, result.vertex_indices) == (value, cycle), (objective, k)


def _count_max_plus_calls(monkeypatch) -> list:
    """Wrap ``geometry._max_plus`` to log each call's anchors and layers."""
    calls, real = [], geometry._max_plus

    def logged(edge, h, anchors, layers):
        calls.append([anchors, *layers])
        return real(edge, h, anchors, layers)

    monkeypatch.setattr(geometry, "_max_plus", logged)
    return calls


@functools.cache
def _bisected_hulls():
    """Seeded hulls of 54 to 383 vertices, from beta = -0.99 to 2."""
    draws = [(-0.99, 300), (-0.9, 1_000), (-0.5, 10_000), (0.0, 300_000), (2.0, 1_000_000)]
    return [
        (convex_hull(pts), pts)
        for pts in (sample_batch(BetaParams(beta), N, SeedPolicy(5), 0) for beta, N in draws)
    ]


def test_max_kgon_bisection_keeps_the_cycles(monkeypatch):
    # The second pass bisects anchor intervals wider than _DP_LEAF.  One
    # leaf (_DP_LEAF = _MAX_HULL) is a pass over all anchors of the arc at
    # once; _DP_LEAF = 1 bisects down to single anchors.  Both keep every
    # cycle of these hulls.  The default bisects every k = 3 case and most
    # others: a second pass of one leaf is one _max_plus call after the
    # rooted one.
    cases = [
        (hull, pts, k, objective)
        for hull, pts in _bisected_hulls()
        for k in (3, 4, 5, 8)
        for objective in Objective
    ]
    calls = _count_max_plus_calls(monkeypatch)
    default, bisected = [], []
    for case in cases:
        calls.clear()
        default.append(max_kgon(*case))
        bisected.append(len(calls) > 2)
    assert all(split for (_, _, k, _), split in zip(cases, bisected) if k == 3)
    assert sum(bisected) >= 30, sum(bisected)
    for leaf in (geometry._MAX_HULL, 1):
        monkeypatch.setattr(geometry, "_DP_LEAF", leaf)
        assert [max_kgon(*case) for case in cases] == default, leaf


def test_max_kgon_bisection_breaks_exact_ties_to_the_first_anchor(monkeypatch):
    # Integer polygons whose best k-gons tie exactly.  With _DP_LEAF = 1
    # each anchor is its own node, so the first anchor with the best total
    # must win across nodes, as it does within the one leaf.
    octagon = [(1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2)]
    circle = [(x, y) for x, y in itertools.product(range(-5, 6), repeat=2) if x * x + y * y == 25]
    clouds = [SQUARE, np.array(octagon, dtype=float), np.array(circle, dtype=float)]
    cases = [
        (pts, k, objective)
        for pts in clouds
        for k in range(3, min(len(pts), 9))
        for objective in Objective
    ]
    cycles = {}
    for leaf in (geometry._MAX_HULL, 1):
        monkeypatch.setattr(geometry, "_DP_LEAF", leaf)
        cycles[leaf] = [umax(*case).vertex_indices for case in cases]
    assert cycles[1] == cycles[geometry._MAX_HULL]


def test_max_kgon_bisection_keeps_the_values_on_regular_polygons(monkeypatch):
    # Cocircular weights tie in floats, so a bisected pass may pick another
    # optimal cycle: only the value is kept.
    cases = [
        (PolygonChain(tuple(range(h))), _regular(h), k, objective)
        for h in (100, 257)
        for k in (3, 4, 5, 8)
        for objective in Objective
    ]
    values = {}
    for leaf in (geometry._DP_LEAF, geometry._MAX_HULL, 1):
        monkeypatch.setattr(geometry, "_DP_LEAF", leaf)
        values[leaf] = [max_kgon(*case).value for case in cases]
    for leaf in (geometry._MAX_HULL, 1):
        assert values[leaf] == pytest.approx(values[geometry._DP_LEAF], rel=1e-12)


def test_max_kgon_bisection_node_without_a_chain_keeps_its_ranges(monkeypatch):
    # A node whose total is -inf has no chain to cut its children's ranges
    # at.  Report the first bisection node's middle anchor as chainless:
    # both children must keep the node's ranges, and the other anchors
    # still give the best cycle (the middle anchor does not win here).
    hull, pts = _bisected_hulls()[1]
    want = max_kgon(hull, pts, 3, Objective.AREA)
    calls, real = [], geometry._max_plus

    def chainless_first_node(edge, h, anchors, layers):
        calls.append([anchors, *layers])
        totals, trace = real(edge, h, anchors, layers)
        if len(calls) == 2:
            assert anchors.shape == (1, 1)  # the middle anchor of the whole arc
            totals = np.full_like(totals, -np.inf)
        return totals, trace

    monkeypatch.setattr(geometry, "_max_plus", chainless_first_node)
    assert max_kgon(hull, pts, 3, Objective.AREA) == want
    pad = 2 * len(hull.vertex_indices)  # one hull: its padding position
    node, children = calls[1], calls[2]
    assert len(children[0]) == 2
    for j in (1, 2):
        span = node[j][node[j] < pad].tolist()
        assert [row[row < pad].tolist() for row in children[j]] == [span, span]


@pytest.mark.parametrize("objective", list(Objective))
def test_max_kgons_equal_the_oracle_on_mixed_batches(monkeypatch, objective):
    # One batch per k holds hulls with h <= k (a segment, a triangle, a
    # k-gon: the hull itself), h = k + 1, regular polygons whose weights tie
    # in floats, and a beta = -0.9 sample (h = 15).  Stacked (the default
    # _DP_BLOCK), one hull at a time (_DP_BLOCK = 1) and through max_kgon,
    # every result is the same; values are the oracle's, and on the 25-gon
    # that of the most even k-gon.
    sample = sample_batch(BetaParams(-0.9), 20, SeedPolicy(1), 0)
    segment = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 0.5]])
    for k in range(3, 7):
        clouds = [segment, _regular(3), _regular(k), _regular(k + 1), sample, _regular(12)]
        clouds.append(_regular(25))
        cases = [(convex_hull(pts), pts) for pts in clouds]
        assert [len(hull.vertex_indices) for hull, _ in cases] == [2, 3, k, k + 1, 15, 12, 25]
        stacked = max_kgons(cases, k, objective)
        assert stacked == [max_kgon(hull, pts, k, objective) for hull, pts in cases]
        with monkeypatch.context() as m:
            m.setattr(geometry, "_DP_BLOCK", 1)
            assert max_kgons(cases, k, objective) == stacked
        for (hull, pts), result in zip(cases[:-1], stacked):
            ring = list(hull.vertex_indices)
            if len(ring) <= k:
                assert result.vertex_indices == hull.vertex_indices
            slow = umax_bruteforce(pts[ring], min(k, len(ring)), objective)
            if pts is sample:
                assert result.value == slow.value
            else:
                assert result.value == pytest.approx(slow.value, rel=1e-12, abs=1e-15)
        gaps = [25 // k + (j < 25 % k) for j in range(k)]
        even = _rescore(np.cumsum([0] + gaps[:-1]), clouds[-1], objective)
        assert stacked[-1].value == pytest.approx(even, rel=1e-12)


def test_max_kgons_refuses_a_batch_with_a_hull_too_large():
    # Before any DP, whichever case of the batch it is.
    small = (convex_hull(SQUARE), SQUARE)
    big = (PolygonChain(tuple(range(5000))), _regular(5000))
    with pytest.raises(ValueError, match=r"h = 5000 vertices; max_kgon takes at most 4096"):
        max_kgons([small, big, small], 3, Objective.AREA)
    assert max_kgons([small, big], 5000, Objective.AREA)[1].vertex_count == 5000


def test_umax_rejects_a_hull_too_large_for_max_kgon():
    # Refused before any DP: 5000 vertices exceed _MAX_HULL, the cap that
    # the rooted pass's O(h^2 k) time sets.
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


@st.composite
def _adversarial_clouds(draw):
    """3 to 12 points where the hull's orientation tests are close calls.

    A cocircular regular polygon, rotated and with each coordinate moved by
    at most one ulp; or a random cloud scaled by 1e-8 or 1e8, or moved far
    off the origin.  With a subset size.
    """
    N = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["regular", "scaled", "off-centre"]))
    if kind == "regular":
        angles = 2.0 * math.pi * np.arange(N) / N + draw(st.floats(0.0, 2.0 * math.pi))
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        ulps = rng.integers(-1, 2, pts.shape)
        pts = np.where(ulps > 0, np.nextafter(pts, np.inf), pts)
        pts = np.where(ulps < 0, np.nextafter(pts, -np.inf), pts)
    elif kind == "scaled":
        pts = rng.uniform(-1.0, 1.0, (N, 2)) * draw(st.sampled_from([1e-8, 1e8]))
    else:
        shift = draw(st.tuples(*[st.floats(-1e3, 1e3)] * 2))
        pts = rng.uniform(-1.0, 1.0, (N, 2)) + shift
    return pts, draw(st.integers(2, min(N, 5)))


# Values only: on exact ties umax and the oracle may pick different cycles.
@settings(max_examples=150, derandomize=True, deadline=None)
@given(_adversarial_clouds(), st.sampled_from(list(Objective)))
def test_umax_value_equals_bruteforce_on_adversarial_clouds(case, objective):
    pts, n = case
    fast = umax(pts, n, objective).value
    slow = umax_bruteforce(pts, n, objective).value
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
        chain = PolygonChain(r.vertex_indices)
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


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _triangle_scores(beta, angle_u, radius_u, objective):
    """hull_functional of the triangles points_from_uniforms makes of the uniforms."""
    pts = points_from_uniforms(BetaParams(beta), np.array(angle_u), np.array(radius_u))
    return hull_functional(pts.reshape(-1, 3, 2), objective)


@pytest.mark.parametrize("beta", [-0.9, 0.0, 2.0])
@pytest.mark.parametrize(
    "objective, grid", [(Objective.PERIMETER, (0.05, 0.2, 0.5, 1.0)), (Objective.AREA, (0.05, 0.25, 0.5))]
)
def test_threshold_radius_drops_only_tuples_below_the_threshold(objective, grid, beta):
    # A tuple with a radius uniform one ulp below the floor, the largest the
    # tail probe's prefilter drops, scores below M - eps: with the others on
    # the circle, opposite it and symmetric about its ray (the worst case of
    # the bound) at every half-angle of a fine grid, and with random others.
    rng = np.random.default_rng(29)
    half = np.linspace(0.0, 0.5 * math.pi, 4_001)
    for eps in grid:
        threshold = extremal_value(objective, 3) - eps
        r0 = threshold_radius(objective, 3, threshold)
        floor = radius_uniform_floor(BetaParams(beta), r0)
        assert 0.0 < floor < 1.0
        below = np.nextafter(floor, 0.0)
        turn = rng.random()  # the inner point's angle, as a uniform
        angle_u = np.column_stack(
            [np.full_like(half, turn)]
            + [(turn + 0.5 + sign * half / (2.0 * math.pi)) % 1.0 for sign in (1.0, -1.0)]
        )
        radius_u = np.column_stack([np.full_like(half, below)] + [np.full_like(half, _BELOW_ONE)] * 2)
        worst = _triangle_scores(beta, angle_u.ravel(), radius_u.ravel(), objective)
        m = 20_000
        radius_u = floor + (1.0 - floor) * rng.random((m, 3))
        radius_u[np.arange(m), rng.integers(0, 3, m)] = below
        radius_u[: m // 10] = below  # all three just below the floor
        others = _triangle_scores(beta, rng.random(3 * m), radius_u.ravel(), objective)
        assert max(worst.max(), others.max()) < threshold, (eps, worst.max(), others.max())


@pytest.mark.parametrize("objective", list(Objective))
def test_threshold_radius_is_tight(objective):
    # The bound is the exact g^-1(threshold) up to rounding margins: an
    # explicit triangle with a vertex at r0 + 1e-3 reaches the threshold.
    # It has the vertex at (-r, 0) and the others at (cos x, +-sin x): the
    # symmetric perimeter case, and for area the chord at distance cos x.
    half = np.linspace(0.0, 0.5 * math.pi, 20_001)
    for eps in (0.05, 0.2, 0.3, 0.5):
        threshold = extremal_value(objective, 3) - eps
        r = threshold_radius(objective, 3, threshold) + 1e-3
        tuples = np.stack(
            [
                np.column_stack([np.full_like(half, -r), np.zeros_like(half)]),
                np.column_stack([np.cos(half), np.sin(half)]),
                np.column_stack([np.cos(half), -np.sin(half)]),
            ],
            axis=1,
        )
        assert hull_functional(tuples, objective).max() >= threshold, eps


def test_threshold_radius_is_zero_without_a_bound():
    # Only n = 3 is bounded, and no radius excludes a tuple when even a
    # vertex at the centre leaves room to reach the threshold: g(0) is 4
    # (perimeter) and 1/2 (area).
    for objective in Objective:
        M4 = extremal_value(objective, 4)
        assert threshold_radius(objective, 4, M4 - 0.01) == 0.0
    assert threshold_radius(Objective.PERIMETER, 2, 3.9) == 0.0
    for objective, g0 in ((Objective.PERIMETER, 4.0), (Objective.AREA, 0.5)):
        for threshold in (g0, 0.5 * g0, 1e-9):
            r0 = threshold_radius(objective, 3, threshold)
            assert r0 == 0.0 and radius_uniform_floor(BetaParams(0.0), r0) == 0.0
        assert threshold_radius(objective, 3, 1.001 * g0) > 0.0
