import math

import numpy as np
import pytest
from scipy.integrate import quad

import helpers
from betapoly.sampler import (
    BetaParams,
    SeedPolicy,
    _radius_from_uniform,
    cartesian,
    draw_points,
    draw_polar,
    points_from_uniforms,
    radius_cdf,
    read_points_csv,
    sample_batch,
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
    # its angles and its radii is the same slice of draw_points, bit for bit.
    params = BetaParams(beta)
    policy = SeedPolicy(77)
    m, n = 1_000, 4
    whole = draw_points(params, policy.trial_generator(3), m * n)
    for lo, hi in ((0, 1), (0, m * n), (123, 2_345), (m * n - 7, m * n)):
        angles = policy.trial_generator(3, skip=lo).random(hi - lo)
        radii = policy.trial_generator(3, skip=m * n + lo).random(hi - lo)
        assert np.array_equal(points_from_uniforms(params, angles, radii), whole[lo:hi])


def test_cartesian_rows_of_any_subset_are_the_rows_of_the_whole_batch():
    # A trial gives coordinates to a subset of its polar points only; they
    # must be the very doubles sample_batch returns, whatever the subset's
    # size, order or position.
    params, policy = BetaParams(0.0), SeedPolicy(13)
    whole = sample_batch(params, 5_000, policy, 2)
    phi, r = draw_polar(params, policy.trial_generator(2), 5_000)
    rng = np.random.default_rng(5)
    subsets = [np.arange(k) for k in range(1, 18)]
    subsets += [np.arange(3, 4_999, 7), np.arange(4_999, 0, -3)]
    subsets += [np.sort(rng.choice(5_000, k, replace=False)) for k in (1, 9, 33, 1_000)]
    for idx in subsets:
        assert np.array_equal(cartesian(phi[idx], r[idx]), whole[idx])


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
    with pytest.raises(ValueError):
        SeedPolicy(5).trial_generator(-2)
    with pytest.raises(ValueError):
        SeedPolicy(5).trial_generator(0, skip=-1)


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
