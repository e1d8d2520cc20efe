"""Smoke tests of the scripts in ``benchmarks/``: each runs a small case against the current API."""

import importlib.util
from pathlib import Path

from betapoly.geometry import Objective, convex_hull, max_kgon, max_kgons
from betapoly.sampler import BetaParams, SeedPolicy, sample_batch

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    """The script ``benchmarks/<name>.py`` as a module, its ``main`` not run."""
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hull_agreement_counts_no_entry_point_difference_on_near_duplicate_clouds():
    script = _load("hull_agreement")
    clouds = script.near_duplicate_clouds(20)
    samples = ((len(r), [script.whole(a, r)]) for a, r in clouds)
    seen, apart, *_, perimeter, _ = script.gaps(BetaParams(-0.99), samples)
    assert (seen, apart) == (20, 0)
    assert perimeter <= script.PERIMETER_GAP


def test_max_kgon_bisection_batch_hulls_are_the_trials_hulls():
    # The first batch: each stacked hull and its cycle are those of the
    # trial's whole sample.
    script = _load("max_kgon_bisection")
    (beta, N), hulls = next(script.batch_hulls())
    assert len(hulls) == script.BATCH_TRIALS
    results = max_kgons(hulls, 3, Objective.PERIMETER)
    for t, ((hull, _), result) in enumerate(zip(hulls, results)):
        pts = sample_batch(BetaParams(beta), N, SeedPolicy(3), t)
        whole = convex_hull(pts)
        assert len(hull.vertex_indices) == len(whole.vertex_indices)
        assert result.value == max_kgon(whole, pts, 3, Objective.PERIMETER).value


def test_angle_jump_paths_select_the_lockstep_reads_doubles():
    # At N = 70 000 the far set's ~530 angles are jumped to; each path is
    # checked against the lockstep read as it is timed.
    script = _load("angle_jump")
    ((N, kept, rule, ms),) = script.trial_rows((70_000,))
    assert (N, rule) == (70_000, "jump") and 0 < kept < N // 100
    assert set(ms) == {"lockstep", "block", "jump"}
