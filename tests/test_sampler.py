import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import helpers
from betapoly import sampler
from betapoly.geometry import _far_count
from betapoly.sampler import (
    BetaParams,
    SeedPolicy,
    _radius_from_uniform,
    cartesian,
    check_integer,
    check_vertex_count,
    points_from_uniforms,
    radius_cdf,
    radius_uniform_floor,
    read_points_csv,
    sample_batch,
    select_uniforms,
    uniform_chunks,
    write_points_csv,
)


def _inverse(params, u):
    return _radius_from_uniform(params, np.asarray(u, dtype=float))


def test_beta_params_validation():
    BetaParams(-0.999)
    BetaParams(10.0)
    with pytest.raises(ValueError):
        BetaParams(-1.0)
    with pytest.raises(ValueError):
        BetaParams(-2.0)
    with pytest.raises(ValueError):
        BetaParams(float("nan"))
    # math.isfinite(True) holds, so True would run as beta = 1.
    # Nor would a string, None or a complex number be a real beta.
    for bad in (True, False, np.True_, "0.5", None, 1 + 0j):
        with pytest.raises(ValueError, match="beta must be a number"):
            BetaParams(bad)
    # Stored as a Python float, so every formula runs in double precision.
    for kind in (np.float16, np.float32, np.float64):
        assert type(BetaParams(kind(0.5)).beta) is float


def test_radius_cdf_examples():
    uniform = BetaParams(0.0)
    assert radius_cdf(uniform, 0.5) == pytest.approx(0.25)
    assert radius_cdf(uniform, 1.0) == 1.0
    assert radius_cdf(uniform, 0.0) == 0.0
    # 1 - (1 - 0.1)^2 = 0.19 at s = sqrt(0.1)
    assert radius_cdf(BetaParams(1.0), 0.316228) == pytest.approx(0.19, rel=1e-5)


def test_radius_cdf_monotone():
    params = BetaParams(-0.5)
    grid = np.linspace(0.0, 1.0, 101)
    vals = radius_cdf(params, grid)
    assert np.all(np.diff(vals) >= 0.0)


def test_radius_cdf_domain_errors():
    params = BetaParams(0.0)
    with pytest.raises(ValueError):
        radius_cdf(params, -0.1)
    with pytest.raises(ValueError):
        radius_cdf(params, 1.1)
    with pytest.raises(ValueError):
        radius_cdf(params, float("nan"))
    with pytest.raises(ValueError):
        radius_cdf(params, np.array([0.5, np.nan]))


def test_sample_radius_examples():
    assert _inverse(BetaParams(0.0), 0.25) == pytest.approx(0.5)
    assert _inverse(BetaParams(1.0), 0.19) == pytest.approx(0.316228, abs=1e-6)
    assert _inverse(BetaParams(0.0), 1e-12) == pytest.approx(0.0, abs=1e-5)


def test_sample_radius_against_bisection_oracle():
    grid = (0.05, 0.3, 0.5, 0.8, 0.95)
    for beta in (-0.5, 0.0, 2.0, 5.0):
        params = BetaParams(beta)
        radii = _inverse(params, grid)
        for u, r in zip(grid, radii):
            ref = helpers.bisect_inverse(lambda s: radius_cdf(params, s), u, 0.0, 1.0)
            assert r == pytest.approx(ref, abs=1e-10)


def test_roundtrip_inverse_then_cdf():
    # u extremely close to 1 maps within one ulp of r=1 and is documented as
    # lossy, so the grid stops at 0.999.
    grid = np.concatenate(([1e-9, 1e-6], np.linspace(0.01, 0.999, 60)))
    for beta in (-0.5, 0.0, 2.0):
        params = BetaParams(beta)
        r = _inverse(params, grid)
        assert np.all(np.abs(radius_cdf(params, r) - grid) < 1e-12)


@pytest.mark.parametrize("beta", [-0.999, -0.99])
def test_sample_batch_near_minus_one(beta):
    # Near beta = -1 almost all the mass lies within 1e-16 of the rim (96% at
    # beta = -0.999), where the radius rounds to 1 and radius_cdf cannot give
    # the uniform back.  So the round trip is checked up to the rounding of
    # the radius: u must lie between the CDF at the two doubles next to r,
    # within 1e-12, i.e. r is within one ulp of the exact inverse.
    params = BetaParams(beta)
    count = 100_000
    pts = sample_batch(params, count, SeedPolicy(13), 0)
    u = SeedPolicy(13).trial_generator(0, skip=count).random(count)  # the radius block
    r = _inverse(params, u)
    assert np.all(np.isfinite(r)) and np.all((r >= 0.0) & (r <= 1.0))
    assert np.all(np.isfinite(pts))
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), r, rtol=0.0, atol=1e-15)
    keep = u <= 1.0 - 1e-6
    u, r = u[keep], r[keep]
    below = radius_cdf(params, np.nextafter(r, 0.0))
    above = radius_cdf(params, np.minimum(np.nextafter(r, 2.0), 1.0))
    assert np.all((below - 1e-12 <= u) & (u <= above + 1e-12))
    # Away from the rim the plain round trip holds.
    tame = 1.0 - r * r >= 1e-6
    assert tame.any()
    assert np.all(np.abs(radius_cdf(params, r[tame]) - u[tame]) < 1e-9)


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_skipped_block_matches_draw_points_slice(beta):
    # A block of points [lo, hi) rebuilt from two generators jumped ahead to
    # its angles and its radii is the same slice of the drawn points, bit for
    # bit.
    params = BetaParams(beta)
    policy = SeedPolicy(77)
    m, n = 1_000, 4
    whole = sample_batch(params, m * n, policy, 3)
    for lo, hi in ((0, 1), (0, m * n), (123, 2_345), (m * n - 7, m * n)):
        angles = policy.trial_generator(3, skip=lo).random(hi - lo)
        radii = policy.trial_generator(3, skip=m * n + lo).random(hi - lo)
        block = points_from_uniforms(params, angles, radii)
        assert np.array_equal(block, whole[lo:hi])


def test_uniform_stream_slices_are_the_drawn_blocks(monkeypatch):
    # The angle block is draws [skip, skip + count) and the radius block the
    # count after it, yielded in lockstep chunks of size points, the last
    # perhaps shorter, by two generators at the blocks' first draws, up to a
    # chunk and beyond.  A second call replays the same doubles.
    policy, stream = SeedPolicy(61), 4
    counts, skips = (1, 99, 100, 101, 250), (0, 1, 600)
    raw = {skip: policy.trial_generator(stream).random(skip + 2 * 250)[skip:] for skip in skips}
    log = helpers.count_draws(monkeypatch)
    for count, size, skip in itertools.product(counts, (1, 97, 100, 249, 250, 251), skips):
        for _ in range(2):
            made = len(log.generators)
            chunks = list(uniform_chunks(policy, stream, count, skip, size))
            assert log.generators[made:] == [(stream, skip), (stream, skip + count)]
            lengths = [len(a) for a, _ in chunks]
            assert lengths == [len(r) for _, r in chunks]
            assert lengths == [min(size, count - lo) for lo in range(0, count, size)]
            angle_u, radius_u = (np.concatenate(block) for block in zip(*chunks))
            assert np.array_equal(angle_u, raw[skip][:count])
            assert np.array_equal(radius_u, raw[skip][count : 2 * count])


@pytest.mark.parametrize("stream, N", [(0, 65_537), (3, 200_000), (8, 10_000_003)])
def test_jumped_uniforms_are_the_streams_draws_at_their_indices(stream, N):
    # The jump computes draw i from the stream's start state; it must be
    # Generator.random's double bit for bit, at the ends of the block and of
    # a chunk, at random sorted indices, at every index, and at none.
    policy = SeedPolicy(64)
    whole = policy.trial_generator(stream).random(N)
    rng = np.random.default_rng(stream)
    indices = [np.array([0, 1, 2**16 - 1, 2**16, N - 1]), np.arange(0)]
    indices += [np.sort(rng.choice(N, k, replace=False)) for k in (1, 2_100, 7_000)]
    indices += [np.arange(N)] if N < 10**6 else []
    start = policy.trial_generator(stream).bit_generator.state
    for index in indices:
        assert np.array_equal(sampler._jumped_uniforms(start, index), whole[index])
    assert start == policy.trial_generator(stream).bit_generator.state


@pytest.mark.parametrize(
    "chunk, N",
    [pytest.param(chunk, 1_000, id=str(chunk)) for chunk in (1, 97, 128, 1_000, 1 << 16)]
    + [(1 << 16, 20_000), (1 << 16, 60_000)],
)
def test_select_uniforms_is_the_same_on_arrays_and_streams_in_any_chunks(monkeypatch, chunk, N):
    # The stream read in chunks of any size, with the kept angle uniforms
    # jumped to or drawn (each path forced), gives the whole blocks'
    # selection.  Each call replays the stream: overwriting what one call
    # returns (as points_from_uniforms does) leaves the next call's doubles
    # as they are, and a call at a lower floor returns a superset whose
    # shared rows are the same doubles, as uniform_hulls' second call needs.
    policy = SeedPolicy(63)
    rng = policy.trial_generator(0)
    angle_u, radius_u = rng.random(N), rng.random(N)
    monkeypatch.setattr(sampler, "_CHUNK", chunk)
    for jump in (True, False):
        monkeypatch.setattr(sampler, "_jump_pays", lambda kept, count: jump)
        picks = []
        for floor in sorted((1.0, 0.99, 1.0 - _far_count(N) / N, 0.5, 0.0, -math.inf), reverse=True):
            keep = np.flatnonzero(radius_u >= floor)
            got = select_uniforms(policy, 0, N, floor)
            assert all(map(np.array_equal, got, (keep, angle_u[keep], radius_u[keep])))
            picks.append(tuple(u.copy() for u in got))
            got[1][:] = got[2][:] = 2.0
        for (keep, *uniforms), (wider, *wider_uniforms) in zip(picks, picks[1:]):
            rows = np.searchsorted(wider, keep)
            assert np.array_equal(wider[rows], keep)
            assert all(map(np.array_equal, (u[rows] for u in wider_uniforms), uniforms))


def test_cartesian_rows_of_any_subset_are_the_rows_of_the_whole_batch():
    # A trial gives coordinates to a subset of its points only; they must be
    # the very doubles sample_batch returns, whatever the subset's size,
    # order or position.
    params, policy = BetaParams(0.0), SeedPolicy(13)
    whole = sample_batch(params, 5_000, policy, 2)
    ((angle_u, radius_u),) = uniform_chunks(policy, 2, 5_000, skip=0, size=5_000)
    rng = np.random.default_rng(5)
    subsets = [np.arange(k) for k in range(1, 18)]
    subsets += [np.arange(3, 4_999, 7), np.arange(4_999, 0, -3)]
    subsets += [np.sort(rng.choice(5_000, k, replace=False)) for k in (1, 9, 33, 1_000)]
    for idx in subsets:
        sub = points_from_uniforms(params, angle_u[idx], radius_u[idx])
        assert np.array_equal(sub, whole[idx])
    # The kernels stack their points on a last axis: a stack of batches is
    # the batches' own rows.
    phi, r = math.tau * angle_u.reshape(50, 100), radius_u.reshape(50, 100)
    assert np.array_equal(cartesian(phi, r).reshape(-1, 2), cartesian(phi.ravel(), r.ravel()))


@pytest.mark.parametrize("beta", [-0.99, -0.5, 0.0, 0.5, 2.0])
def test_inverse_cdf_of_any_subset_is_the_rows_of_the_whole_batch(beta):
    # A trial runs the angle map and the inverse CDF only on the points its
    # uniform filter keeps; they must be the very doubles the whole batch
    # gets, for any length (1..70, so SIMD tail loops run), order, position,
    # fancy index, mask or view.
    params = BetaParams(beta)
    rng = np.random.default_rng(19)
    angle_u, radius_u = rng.random(300), rng.random(300)
    radius_u[:60] = 1.0 - rng.random(60) * 10.0 ** rng.uniform(-15.0, -3.0, 60)
    radius_u[60:64] = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)]
    rng.shuffle(radius_u)
    phi, r = math.tau * angle_u, _radius_from_uniform(params, radius_u)
    pts = points_from_uniforms(params, angle_u.copy(), radius_u.copy())
    assert np.array_equal(pts, cartesian(phi, r))
    for length in range(1, 71):
        start = int(rng.integers(0, 300 - length + 1))
        view = slice(start, start + length)
        assert np.array_equal(_radius_from_uniform(params, radius_u[view]), r[view])
        assert np.array_equal(math.tau * angle_u[view], phi[view])
        mask = np.zeros(300, dtype=bool)
        mask[rng.choice(300, length, replace=False)] = True
        for idx in (rng.choice(300, length, replace=False), mask, np.arange(length)[::-1]):
            sub = points_from_uniforms(params, angle_u[idx], radius_u[idx])
            assert np.array_equal(sub, pts[idx])


def _bits(x: float) -> int:
    return int(np.array([x]).view(np.int64)[0])


def _double(bits: int) -> float:
    return float(np.array([bits], dtype=np.int64).view(np.float64)[0])


def _first_reaching(params, radius, lo):
    """Least double ``u >= lo`` whose computed radius reaches ``radius``, by
    bisection on the bits, or the largest uniform if none does."""
    reaches = lambda bits: _inverse(params, [_double(bits)])[0] >= radius
    a, b = _bits(lo), _bits(np.nextafter(1.0, 0.0))
    if reaches(a):
        return lo
    if not reaches(b):
        return _double(b)
    while b - a > 1:
        m = (a + b) // 2
        a, b = (a, m) if reaches(m) else (m, b)
    return _double(b)


def _ulp_steps(x, k, top):
    """The doubles up to ``k`` steps either side of ``x``, kept in [0, top]."""
    bits = _bits(x) + np.arange(-k, k + 1)
    return np.array([_double(b) for b in bits if 0 <= b <= _bits(top)])


@pytest.mark.parametrize("beta", [-0.999, -0.99, -0.9, 0.0, 2.0, 10.0])
def test_radius_uniform_floor_selects_every_uniform_that_reaches_the_radius(beta):
    # The floor must never drop a uniform whose computed radius, taken from
    # the whole array, reaches the radius: ulp steps around the floor,
    # around radius_cdf(radius) and around the first uniform that reaches
    # it, plus random uniforms, some between the floor and 1.
    params = BetaParams(beta)
    rng = np.random.default_rng(23)
    top = np.nextafter(1.0, 0.0)
    for radius in (0.1, 0.5, 0.9, 0.999, 1 - 2**-20, 1 - 2**-30, 1 - 2**-40, 1 - 2**-50, 1.0):
        floor = radius_uniform_floor(params, radius)
        assert 0.0 < floor < 1.0
        anchors = (floor, radius_cdf(params, radius), _first_reaching(params, radius, floor))
        u = np.concatenate(
            [_ulp_steps(x, 64, top) for x in anchors]
            + [rng.random(4_000), floor + (1.0 - floor) * rng.random(4_000)]
        )
        u = np.minimum(u, top)
        r = _inverse(params, u)
        assert np.all(u[r >= radius] >= floor)
        # The slack is not so wide that the filter keeps far too many points.
        w = (1.0 - radius) * (1.0 + radius)
        if beta >= -0.9 and w >= 2**-20:
            assert 1.0 - floor <= w ** (beta + 1.0) * (1.0 + 1e-6) + 2**-49
    # Without a certificate (a radius outside (0, 1], or too small for the
    # bound) the floor is 0, so every point is kept.
    u = np.concatenate([[0.0], rng.random(100)])
    for radius in (-0.5, 0.0, 1e-7, 1.5, float("nan")):
        floor = radius_uniform_floor(params, radius)
        assert floor == 0.0 and np.all(u >= floor)


def test_check_integer_returns_an_int_and_holds_the_bound():
    for value in (np.int8(3), np.uint64(3), np.int64(3), 3):
        assert type(check_integer(value, "count")) is int
        assert check_integer(value, "count", least=3) == 3
    assert check_integer(np.int64(-2), "skip") == -2  # no bound without least
    with pytest.raises(ValueError, match=r"^count must be >= 1, got 0$"):
        check_integer(np.int32(0), "count", least=1)
    with pytest.raises(ValueError, match=r"^skip must be >= 0, got -1$"):
        check_integer(-1, "skip", least=0)
    for bad in (3.0, True, "3", None):
        with pytest.raises(ValueError, match="count must be an integer"):
            check_integer(bad, "count", least=1)
    assert type(check_vertex_count(np.int64(4))) is int


def test_check_vertex_count():
    check_vertex_count(2)
    check_vertex_count(np.int64(3), least=3)
    for bad in (4.0, 3.5, float("inf"), float("nan"), "4", None, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="n must be an integer"):
            check_vertex_count(bad)
    with pytest.raises(ValueError, match="area kernel needs n >= 3, got 2"):
        check_vertex_count(2, 3, "area kernel")


def test_sample_batch_determinism():
    params = BetaParams(0.7)
    policy = SeedPolicy(42)
    a = sample_batch(params, 500, policy, trial_index=3)
    b = sample_batch(params, 500, policy, trial_index=3)
    assert a.tobytes() == b.tobytes()
    c = sample_batch(params, 500, policy, trial_index=4)
    assert a.tobytes() != c.tobytes()
    d = sample_batch(params, 500, SeedPolicy(43), trial_index=3)
    assert a.tobytes() != d.tobytes()


def test_sample_batch_validation():
    with pytest.raises(ValueError):
        sample_batch(BetaParams(0.0), 0, SeedPolicy(1))
    with pytest.raises(ValueError):
        SeedPolicy(-1)
    with pytest.raises(ValueError):
        SeedPolicy(2**64)
    SeedPolicy(np.uint64(2**64 - 1))
    # int() would truncate these to seed 1's stream.
    for bad in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            SeedPolicy(bad)
    with pytest.raises(ValueError):
        SeedPolicy(5).trial_generator(-2)
    with pytest.raises(ValueError):
        SeedPolicy(5).trial_generator(0, skip=-1)
    # int() would truncate 1.5 to trial 1's stream and take True for 1.
    policy = SeedPolicy(7)
    for bad in (1.5, 4.0, True, "1", None):
        with pytest.raises(ValueError, match="trial_index must be an integer"):
            sample_batch(BetaParams(0.0), 5, policy, trial_index=bad)
        with pytest.raises(ValueError, match="skip must be an integer"):
            policy.trial_generator(0, skip=bad)
        with pytest.raises(ValueError, match="count must be an integer"):
            sample_batch(BetaParams(0.0), bad, policy)
    same = sample_batch(BetaParams(0.0), np.int64(5), policy, trial_index=np.uint32(1))
    assert same.tobytes() == sample_batch(BetaParams(0.0), 5, policy, trial_index=1).tobytes()


def test_sample_batch_radii_and_mean_against_quadrature():
    beta = -0.5
    pts = sample_batch(BetaParams(beta), 100_000, SeedPolicy(7), 0)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert np.all(r <= 1.0) and np.all(r >= 0.0)
    density = lambda s: 2.0 * (beta + 1.0) * s * (1.0 - s * s) ** beta
    mean_exact, _ = quad(lambda s: s * density(s), 0.0, 1.0)
    second, _ = quad(lambda s: s * s * density(s), 0.0, 1.0)
    se = math.sqrt((second - mean_exact**2) / len(r))
    assert abs(float(np.mean(r)) - mean_exact) < 3.0 * se


@pytest.mark.parametrize("beta", [-0.5, 0.0, 2.0])
def test_empirical_radial_cdf_ks(beta):
    m = 10_000
    pts = sample_batch(BetaParams(beta), m, SeedPolicy(2024), 0)
    rs = np.sort(np.hypot(pts[:, 0], pts[:, 1]))
    F = radius_cdf(BetaParams(beta), rs)
    i = np.arange(1, m + 1)
    ks = max(np.max(i / m - F), np.max(F - (i - 1) / m))
    assert ks < 2.0 / math.sqrt(m)


def test_points_csv_roundtrip(tmp_path):
    pts = sample_batch(BetaParams(1.5), 200, SeedPolicy(99), 0)
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    assert path.read_text().splitlines()[0] == "x,y"
    back = read_points_csv(path)
    assert np.array_equal(back, pts)


def test_read_points_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n")
    with pytest.raises(ValueError):
        read_points_csv(path)
    path.write_text("x,y\n1,2,3\n")
    with pytest.raises(ValueError):
        read_points_csv(path)
