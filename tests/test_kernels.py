import math

import numpy as np
import pytest

from betapoly.geometry import (
    Objective,
    convex_hull,
    hull_functional,
    max_kgon,
    max_kgons,
    polygon_area,
    polygon_perimeter,
    threshold_radius,
    umax,
    umax_bruteforce,
)
from betapoly.kernels import (
    KernelSpec,
    analytic_I,
    analytic_det_negG,
    analytic_radial_partial,
    analyze_maximizer,
    compute_I,
    numeric_angular_gradient,
    numeric_radial_partials,
    numeric_sub_hessian,
)
from betapoly.limits import extremal_value, law_for
from betapoly.montecarlo import SimConfig, tail_prefactor, tail_probe
from betapoly.sampler import BetaParams, SeedPolicy, sample_batch

TWO_PI = 2.0 * math.pi

_CLOUD = sample_batch(BetaParams(0.0), 200, SeedPolicy(1))
_HALF_DISK = np.array([[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]])
_KITE = np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -0.5]]])
# Every public function that takes an objective, called with one.  Each
# value tells the two objectives apart, so a name read as the wrong member
# shows.
_TAKES_AN_OBJECTIVE = {
    "Objective.parse": Objective.parse,
    "KernelSpec": lambda o: KernelSpec(o, 3),
    "hull_functional": lambda o: [hull_functional(t, o).tolist() for t in (_HALF_DISK, _KITE)],
    "threshold_radius": lambda o: threshold_radius(o, 3, 1.2),
    "max_kgon": lambda o: max_kgon(convex_hull(_CLOUD), _CLOUD, 3, o),
    "max_kgons": lambda o: max_kgons([(convex_hull(_CLOUD), _CLOUD)], 4, o),
    "umax": lambda o: umax(_CLOUD, 3, o),
    "umax_bruteforce": lambda o: umax_bruteforce(_CLOUD[:12], 3, o),
    "analytic_det_negG": lambda o: analytic_det_negG(o, 3),
    "analytic_radial_partial": lambda o: analytic_radial_partial(o, 3),
    "analytic_I": lambda o: analytic_I(o, 3, 0.5),
    "extremal_value": lambda o: extremal_value(o, 3),
    "law_for": lambda o: law_for(o, 3, 0.5),
    "tail_prefactor": lambda o: tail_prefactor(o, 3, 0.5),
    "tail_probe": lambda o: tail_probe(o, 3, 0.0, (0.5, 0.6), 60_000, 5, threads=1),
    "SimConfig": lambda o: SimConfig(o, 3, 0.0, (40,), 2, 1),
}


@pytest.mark.parametrize("name", list(_TAKES_AN_OBJECTIVE))
def test_every_function_that_takes_an_objective_takes_its_name(name):
    call = _TAKES_AN_OBJECTIVE[name]
    per, area = call(Objective.PERIMETER), call(Objective.AREA)
    assert per != area
    for spelling in ("perimeter", " Perimeter "):
        assert call(spelling) == per
    for spelling in ("area", "AREA"):
        assert call(spelling) == area
    for bad in (None, 5, "volume"):
        with pytest.raises(ValueError, match="unknown objective"):
            call(bad)


def test_perimeter_kernel_examples():
    k3 = KernelSpec(Objective.PERIMETER, 3)
    assert k3.evaluate(*k3.maximizer) == pytest.approx(3.0 * math.sqrt(3.0))
    assert k3.evaluate(np.array([0.0, 0.0]), np.ones(3)) == pytest.approx(0.0, abs=1e-15)
    assert extremal_value(Objective.PERIMETER, 4) == pytest.approx(4.0 * math.sqrt(2.0))
    k2 = KernelSpec(Objective.PERIMETER, 2)
    assert extremal_value(Objective.PERIMETER, 2) == pytest.approx(4.0)
    assert k2.evaluate(np.array([math.pi]), np.ones(2)) == pytest.approx(4.0)


def test_area_kernel_examples():
    k3 = KernelSpec(Objective.AREA, 3)
    assert k3.evaluate(*k3.maximizer) == pytest.approx(3.0 * math.sqrt(3.0) / 4.0)
    assert extremal_value(Objective.AREA, 4) == pytest.approx(2.0)
    val = k3.evaluate(np.array([TWO_PI / 3, 2 * TWO_PI / 3]), np.array([0.5, 1.0, 1.0]))
    assert val == pytest.approx(math.sin(TWO_PI / 3), abs=1e-9)  # 0.866025...
    with pytest.raises(ValueError):
        KernelSpec(Objective.AREA, 2)


def test_analytic_I_rejects_a_non_integer_n():
    with pytest.raises(ValueError, match="n must be an integer, got 3.5"):
        analytic_I(Objective.PERIMETER, 3.5, 0.0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError, match="perimeter kernel needs n >= 2, got 1"):
        KernelSpec(Objective.PERIMETER, 1)
    with pytest.raises(ValueError, match="area kernel needs n >= 3, got 2"):
        KernelSpec(Objective.AREA, 2)
    with pytest.raises(ValueError, match="area kernel needs n >= 3, got 2"):
        analytic_I(Objective.AREA, 2, 0.0)
    # One rule for n across the public API: an int (not a bool), never a
    # float, even a whole one.
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.5, 0.5]])
    for call in (
        lambda: KernelSpec(Objective.PERIMETER, True),
        lambda: extremal_value(Objective.PERIMETER, 3.5),
        lambda: extremal_value(Objective.AREA, float("nan")),
        lambda: umax(pts, 3.0, Objective.PERIMETER),
        lambda: max_kgon(convex_hull(pts), pts, 3.0, Objective.PERIMETER),
        lambda: umax_bruteforce(pts, 3.5, Objective.AREA),
        lambda: tail_probe(Objective.AREA, 4.0, 0.0, [0.1, 0.2], 10**5, 1),
        lambda: SimConfig(Objective.PERIMETER, 4.0, 0.0, (100,), 2, 1),
    ):
        with pytest.raises(ValueError, match="n must be an integer"):
            call()
    with pytest.raises(ValueError, match="perimeter kernel needs n >= 2, got 1"):
        extremal_value(Objective.PERIMETER, 1)
    with pytest.raises(ValueError, match="area kernel needs n >= 3, got 2"):
        extremal_value(Objective.AREA, 2)
    with pytest.raises(ValueError, match="a polygon needs n >= 2, got 1"):
        umax(pts, 1, Objective.AREA)
    with pytest.raises(ValueError, match="a polygon needs n >= 2, got 1"):
        umax_bruteforce(pts, 1, Objective.AREA)
    spec = KernelSpec(Objective.PERIMETER, 3)
    analysis = analyze_maximizer(spec)
    for beta in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="beta must be finite and > -1"):
            analytic_I(Objective.PERIMETER, 3, beta)
        with pytest.raises(ValueError, match="beta must be finite and > -1"):
            compute_I(spec, analysis, beta)
    spec = KernelSpec(Objective.AREA, 4)
    with pytest.raises(ValueError, match="expected angles"):
        spec.evaluate(np.zeros(2), np.ones(4))
    with pytest.raises(ValueError, match="expected angles"):
        spec.evaluate(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="expected angles"):
        spec.evaluate(np.zeros((5, 2)), np.ones(4))
    with pytest.raises(ValueError, match="expected angles"):
        spec.evaluate(np.zeros(3), np.ones((5, 3)))
    with pytest.raises(ValueError, match="expected angles"):
        spec.evaluate(0.0, np.ones(4))


@pytest.mark.parametrize("objective,n", [(Objective.PERIMETER, 2), (Objective.PERIMETER, 3),
                                         (Objective.AREA, 3), (Objective.AREA, 5)])
def test_stacked_evaluate_equals_row_by_row(objective, n):
    # Bit for bit: the finite-difference probes evaluate whole stencils this way.
    spec = KernelSpec(objective, n)
    rng = np.random.default_rng(31 + n)
    angles = rng.random((4, 3, n - 1)) * TWO_PI
    radii = rng.random((3, n))
    one_angle, one_radius = angles[0, 0], radii[0]

    shared_radii = spec.evaluate(angles, one_radius)
    assert shared_radii.shape == (4, 3)
    for k in np.ndindex(4, 3):
        assert shared_radii[k] == spec.evaluate(angles[k], one_radius)

    shared_angles = spec.evaluate(one_angle, radii)
    assert shared_angles.shape == (3,)
    for k in range(3):
        assert shared_angles[k] == spec.evaluate(one_angle, radii[k])

    both = spec.evaluate(angles, radii)  # (4, 3, n-1) with (3, n)
    assert both.shape == (4, 3)
    for k in np.ndindex(4, 3):
        assert both[k] == spec.evaluate(angles[k], radii[k[1]])

    assert isinstance(spec.evaluate(one_angle, one_radius), float)
    assert spec.evaluate(angles[:0], one_radius).shape == (0, 3)


def _random_polar_tuple(rng, n):
    """Angles relative to the first point, radii, and the Cartesian points."""
    theta = np.sort(rng.random(n) * TWO_PI)
    radii = 0.05 + 0.95 * rng.random(n)
    pts = np.column_stack((radii * np.cos(theta), radii * np.sin(theta)))
    return theta[1:] - theta[0], radii, pts


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kernel_matches_cartesian_cycle(n):
    # The kernel is the perimeter / area of the convex hull of its arguments;
    # random radii leave some points inside the hull.
    rng = np.random.default_rng(1000 + n)
    per = KernelSpec(Objective.PERIMETER, n)
    area = KernelSpec(Objective.AREA, n)
    for _ in range(50):
        angles, radii, pts = _random_polar_tuple(rng, n)
        hull = convex_hull(pts)
        assert per.evaluate(angles, radii) == pytest.approx(
            polygon_perimeter(hull, pts), abs=1e-10
        )
        assert area.evaluate(angles, radii) == pytest.approx(polygon_area(hull, pts), abs=1e-10)


def test_kernel_permutation_invariance():
    from itertools import permutations

    rng = np.random.default_rng(9)
    per = KernelSpec(Objective.PERIMETER, 3)
    area = KernelSpec(Objective.AREA, 3)
    ref_angles, radii, _ = _random_polar_tuple(rng, 3)
    theta = np.concatenate(([0.0], ref_angles))
    per_ref = per.evaluate(ref_angles, radii)
    area_ref = area.evaluate(ref_angles, radii)
    for perm in permutations(range(3)):
        p = list(perm)
        angles = np.mod(theta[p][1:] - theta[p][0], TWO_PI)
        assert per.evaluate(angles, radii[p]) == pytest.approx(per_ref, abs=1e-10)
        assert area.evaluate(angles, radii[p]) == pytest.approx(area_ref, abs=1e-10)


@pytest.mark.parametrize("objective,n", [(Objective.PERIMETER, 3), (Objective.PERIMETER, 5),
                                         (Objective.AREA, 3), (Objective.AREA, 4)])
def test_max_value_is_a_maximum(objective, n):
    spec = KernelSpec(objective, n)
    a0, r0 = spec.maximizer
    rng = np.random.default_rng(77)
    M = extremal_value(objective, n)
    assert spec.evaluate(a0, r0) == pytest.approx(M, abs=1e-10)
    for _ in range(100):
        da = rng.normal(scale=0.15, size=n - 1)
        dr = rng.random(n) * 0.2
        assert spec.evaluate(a0 + da, np.clip(r0 - dr, 0.0, 1.0)) <= M + 1e-9


def test_angular_gradient_vanishes_at_maximizer():
    for spec in (KernelSpec(Objective.PERIMETER, 3), KernelSpec(Objective.AREA, 4)):
        g = numeric_angular_gradient(spec, step=1e-5)
        assert np.max(np.abs(g)) < 1e-6


def test_angular_gradient_nonzero_off_maximizer():
    spec = KernelSpec(Objective.PERIMETER, 3)
    a0, r0 = spec.maximizer
    g = numeric_angular_gradient(spec, (a0 + 0.1, r0), step=1e-5)
    assert np.max(np.abs(g)) > 1e-3


def test_finite_difference_probes_need_a_positive_finite_step():
    # A NaN step passed the old "step <= 0" check and gave NaN results.
    spec = KernelSpec(Objective.PERIMETER, 3)
    for probe in (numeric_angular_gradient, numeric_sub_hessian, numeric_radial_partials):
        for bad in (0.0, -1e-5, math.nan, math.inf):
            with pytest.raises(ValueError, match="step must be positive and finite"):
                probe(spec, step=bad)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        analyze_maximizer(spec, math.nan)
    # True passed the range check and ran as a step of 1.
    for bad in (True, "1e-5", 1j):
        with pytest.raises(ValueError, match="step must be a number"):
            analyze_maximizer(spec, bad)


def test_gradient_second_order_convergence():
    # Halving the step cuts the central-difference error ~4x where truncation
    # dominates; measured at a non-critical point against a tiny-step reference.
    spec = KernelSpec(Objective.PERIMETER, 3)
    point = (np.array([TWO_PI / 3 + 0.3, 2 * TWO_PI / 3 - 0.1]), np.ones(3))
    ref = numeric_angular_gradient(spec, point, step=1e-7)
    err = lambda h: np.max(np.abs(numeric_angular_gradient(spec, point, step=h) - ref))
    ratio = err(2e-2) / err(1e-2)
    assert 3.0 < ratio < 5.5


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("objective", list(Objective))
def test_sub_hessian_matches_analytic(objective, n):
    if objective is Objective.AREA and n < 3:
        pytest.skip("area needs n >= 3")
    spec = KernelSpec(objective, n)
    G = numeric_sub_hessian(spec)
    assert np.max(np.abs(G - G.T)) < 1e-6
    det = float(np.linalg.det(-G))
    assert det == pytest.approx(analytic_det_negG(objective, n), rel=1e-4)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("objective", list(Objective))
def test_radial_partials_match_analytic(objective, n):
    spec = KernelSpec(objective, n)
    partials = numeric_radial_partials(spec)
    expected = analytic_radial_partial(objective, n)
    assert np.allclose(partials, expected, atol=1e-5)
    assert np.all(partials > 0.0)


def test_analytic_radial_partial_values():
    # Twice the per-edge chord sensitivity: each vertex bounds two edges.
    assert analytic_radial_partial(Objective.PERIMETER, 3) == pytest.approx(
        2.0 * math.sin(math.pi / 3)
    )
    assert analytic_radial_partial(Objective.AREA, 3) == pytest.approx(math.sin(TWO_PI / 3))
    assert analytic_radial_partial(Objective.AREA, 4) == pytest.approx(1.0)


def test_analysis_flags():
    analysis = analyze_maximizer(KernelSpec(Objective.PERIMETER, 4))
    assert analysis.a6_pass and analysis.a7_pass
    assert analysis.det_negG == pytest.approx(analytic_det_negG(Objective.PERIMETER, 4), rel=1e-4)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("beta", [-0.5, 0.0, 1.5])
@pytest.mark.parametrize("objective", list(Objective))
def test_compute_I_matches_closed_form(objective, n, beta):
    spec = KernelSpec(objective, n)
    analysis = analyze_maximizer(spec)
    I_num = compute_I(spec, analysis, beta)
    assert I_num == pytest.approx(analytic_I(objective, n, beta), rel=1e-3)


def test_compute_I_exact_values():
    assert analytic_I(Objective.PERIMETER, 3, 0.0) == pytest.approx(8.0 / (9.0 * math.sqrt(3.0)))
    assert analytic_I(Objective.AREA, 3, 0.0) == pytest.approx(64.0 / (9.0 * math.sqrt(3.0)))


def test_compute_I_rejects_a7_violation():
    spec = KernelSpec(Objective.PERIMETER, 3)
    analysis = analyze_maximizer(spec)
    from betapoly.kernels import MaximizerAnalysis

    broken = MaximizerAnalysis(
        angular_gradient=analysis.angular_gradient,
        sub_hessian=analysis.sub_hessian,
        det_negG=analysis.det_negG,
        radial_partials=-analysis.radial_partials,
    )
    with pytest.raises(ValueError, match="A7"):
        compute_I(spec, broken, 0.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_maximizer_attains_max_value(n):
    for objective in [Objective.PERIMETER] + ([Objective.AREA] if n >= 3 else []):
        spec = KernelSpec(objective, n)
        val = spec.evaluate(*spec.maximizer)
        assert val == pytest.approx(extremal_value(objective, n), abs=1e-10)
