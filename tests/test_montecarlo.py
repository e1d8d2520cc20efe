import dataclasses
import math

import numpy as np
import pytest

from betapoly import montecarlo
from betapoly.geometry import Objective, convex_hull, hull_functional, max_kgon, umax_bruteforce
from betapoly.limits import extremal_value, law_for, shape_C, weibull_cdf
from betapoly.montecarlo import (
    EmpiricalCDF,
    SimConfig,
    build_summary,
    consistency_check,
    fit_shape,
    ks_distance,
    run_trials,
    tail_prefactor,
    tail_probe,
    write_ecdf_csv,
    write_trials_csv,
)
from betapoly.sampler import BetaParams, SeedPolicy, draw_points, sample_batch

PERIMETER_LAW = law_for(Objective.PERIMETER, 3, 0.0)


def _small_config(**overrides):
    base = dict(
        objective=Objective.PERIMETER,
        n=3,
        beta=0.0,
        N_list=(40, 90),
        trials=25,
        master_seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        _small_config(trials=0)
    with pytest.raises(ValueError):
        _small_config(N_list=())
    with pytest.raises(ValueError):
        _small_config(N_list=(2,))
    with pytest.raises(ValueError):
        _small_config(consistency_delta=0.0)


def test_run_trials_deterministic_across_workers():
    cfg = _small_config()
    runs = [run_trials(cfg, threads=t) for t in (1, 2, 3)]
    keys = [[(r.N, r.trial_index, r.H, r.T, r.hull_size) for r in recs] for recs in runs]
    assert keys[0] == keys[1] == keys[2]


def test_run_trials_support_and_order():
    cfg = _small_config()
    recs = run_trials(cfg, threads=1)
    assert [(r.N, r.trial_index) for r in recs] == [
        (N, t) for N in cfg.N_list for t in range(cfg.trials)
    ]
    for r in recs:
        assert r.H <= PERIMETER_LAW.M + 1e-9
        assert r.T >= -1e-9
        assert 1 <= r.hull_size <= r.N


def test_trial_rederivable_from_seed():
    cfg = _small_config()
    recs = run_trials(cfg, threads=2)
    target = recs[30]  # N=90 block
    pts = sample_batch(BetaParams(cfg.beta), target.N, SeedPolicy(cfg.master_seed), target.trial_index)
    from betapoly.geometry import umax

    again = umax(pts, cfg.n, cfg.objective)
    assert again.value == target.H


def test_trials_match_bruteforce_oracle():
    cfg = _small_config(N_list=(10, 12), trials=10)
    recs = run_trials(cfg, threads=1)
    for r in recs:
        pts = sample_batch(BetaParams(cfg.beta), r.N, SeedPolicy(cfg.master_seed), r.trial_index)
        assert umax_bruteforce(pts, cfg.n, cfg.objective).value == r.H


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("beta", [-0.9, 0.0, 2.0])
def test_trials_equal_the_full_sample_path(objective, beta):
    # A trial gives coordinates only to the points its radius filter keeps;
    # their hull, H and the hull size must still be those of the whole
    # sample, bit for bit.  N = 127 / 128 straddle the filter's minimum size.
    # At beta = -0.9 one trial per N: its N = 4000 hull has ~1250 vertices
    # (~1 s per max_kgon), and its N = 10^5 hull ~18 000, beyond max_kgon's
    # limit, so there both paths must raise.
    Ns = (127, 128, 4000, 100_000)
    cfg = _small_config(objective=objective, beta=beta, N_list=Ns, trials=1 if beta < 0 else 2)
    params, policy = BetaParams(beta), SeedPolicy(cfg.master_seed)
    hulls = {}
    for N in Ns:
        for t in range(cfg.trials):
            pts = sample_batch(params, N, policy, t)
            hull = convex_hull(pts)
            keep, cand = montecarlo._trial_candidates(params, policy, N, t)
            assert np.array_equal(cand, pts[keep])
            kept_hull = tuple(int(keep[i]) for i in convex_hull(cand).vertex_indices)
            assert kept_hull == hull.vertex_indices
            if N >= 4000 and beta >= 0.0:  # near beta = -1 most points are near the circle
                assert len(keep) < N // 4
            hulls[N, t] = (hull, pts)
    if beta < 0:
        with pytest.raises(ValueError, match="max_kgon takes at most 4096"):
            max_kgon(*hulls[Ns[-1], 0], cfg.n, objective)
        with pytest.raises(ValueError, match="max_kgon takes at most 4096"):
            run_trials(dataclasses.replace(cfg, N_list=Ns[-1:]), threads=1)
        cfg = dataclasses.replace(cfg, N_list=Ns[:-1])
    for r in run_trials(cfg, threads=1):
        hull, pts = hulls[r.N, r.trial_index]
        assert max_kgon(hull, pts, cfg.n, objective).value == r.H
        assert len(hull.vertex_indices) == r.hull_size


def test_empirical_cdf_evaluate():
    ecdf = EmpiricalCDF.from_samples([3.0, 1.0, 2.0])
    assert ecdf.evaluate(0.5) == 0.0
    assert ecdf.evaluate(1.0) == pytest.approx(1.0 / 3.0)
    assert ecdf.evaluate(2.5) == pytest.approx(2.0 / 3.0)
    assert ecdf.evaluate(99.0) == 1.0
    with pytest.raises(ValueError):
        EmpiricalCDF.from_samples([])


def test_ks_distance_discretization_bound():
    m = 500
    p = (np.arange(1, m + 1) - 0.5) / m
    t = (-np.log1p(-p) / PERIMETER_LAW.B) ** (1.0 / PERIMETER_LAW.C)
    ecdf = EmpiricalCDF.from_samples(t)
    assert ks_distance(ecdf, PERIMETER_LAW) <= 0.5 / m + 1e-12


def test_fit_shape_recovers_synthetic_weibull():
    rng = np.random.default_rng(5)
    u = rng.random(100_000)
    t = (-np.log1p(-u) / PERIMETER_LAW.B) ** (1.0 / PERIMETER_LAW.C)
    fit = fit_shape(EmpiricalCDF.from_samples(t))
    assert fit.c_hat == pytest.approx(PERIMETER_LAW.C, rel=0.02)
    assert fit.b_hat == pytest.approx(PERIMETER_LAW.B, rel=0.10)
    assert fit.c_stderr < 0.05
    assert fit.n_points >= 100


def test_fit_shape_exponential_is_shape_one():
    rng = np.random.default_rng(6)
    t = -np.log1p(-rng.random(50_000))
    fit = fit_shape(EmpiricalCDF.from_samples(t))
    assert fit.c_hat == pytest.approx(1.0, rel=0.03)


def test_fit_shape_validation():
    small = EmpiricalCDF.from_samples(np.linspace(0.1, 1.0, 50))
    with pytest.raises(ValueError):
        fit_shape(small)
    ok = EmpiricalCDF.from_samples(np.linspace(0.1, 1.0, 1000))
    with pytest.raises(ValueError):
        fit_shape(ok, quantile_window=(0.6, 0.05))


def test_tail_probe_small_run_matches_prediction():
    res = tail_probe(Objective.PERIMETER, 3, 0.0, (0.4, 0.5), 300_000, seed=99)
    assert res.epsilon_grid == (0.5, 0.4)
    pref = tail_prefactor(Objective.PERIMETER, 3, 0.0)
    for eps, p in zip(res.epsilon_grid, res.hit_probabilities):
        assert p == pytest.approx(pref * eps**4, rel=0.25)
    assert 3.0 < res.fitted_slope < 5.0
    again = tail_probe(Objective.PERIMETER, 3, 0.0, (0.5, 0.4), 300_000, seed=99)
    assert again.hits == res.hits  # grid order must not matter


def test_tail_probe_hits_do_not_depend_on_threads():
    runs = [
        tail_probe(Objective.PERIMETER, 3, 0.0, (0.4, 0.5), 300_000, seed=99, threads=t)
        for t in (1, 2, 3)
    ]
    assert runs[0] == runs[1] == runs[2]  # hits, and so the fit too
    with pytest.raises(ValueError, match="threads"):
        tail_probe(Objective.PERIMETER, 3, 0.0, (0.4, 0.5), 300_000, seed=99, threads=0)


def test_tail_probe_blocks_do_not_change_the_hits(monkeypatch):
    # The chunk fixes the stream; the block only bounds memory.  A small
    # chunk gives this small probe enough chunks to run on the thread pool.
    monkeypatch.setattr(montecarlo, "_TAIL_CHUNK", 2_000)
    args = (Objective.AREA, 4, 0.0, (0.9, 1.1), 6_400)
    whole = tail_probe(*args, seed=6, threads=1).hits
    for block in (7, 1_000):
        monkeypatch.setattr(montecarlo, "_TAIL_BLOCK", block)
        assert tail_probe(*args, seed=6, threads=1).hits == whole
        assert tail_probe(*args, seed=6, threads=2).hits == whole


def _sequential_hits(objective, n, beta, eps, draws, seed):
    """The chunked stream scored chunk by chunk, as one generator draws it."""
    params = BetaParams(beta)
    M = extremal_value(objective, n)
    hits = []
    for k, e in enumerate(sorted(eps, reverse=True)):
        rng = SeedPolicy(seed).trial_generator(k)
        count = 0
        for start in range(0, draws, montecarlo._TAIL_CHUNK):
            m = min(montecarlo._TAIL_CHUNK, draws - start)
            vals = hull_functional(draw_points(params, rng, m * n).reshape(m, n, 2), objective)
            count += int(np.count_nonzero(vals >= M - e))
        hits.append(count)
    return tuple(hits)


def test_tail_probe_ragged_draws_reproduce_the_sequential_stream():
    # Two chunks, the second cut into three whole blocks and a ragged tail.
    draws = montecarlo._TAIL_CHUNK + 3 * montecarlo._TAIL_BLOCK + 7
    expected = _sequential_hits(Objective.PERIMETER, 3, 0.0, (0.4, 0.5), draws, 99)
    # Nearly every triangle has perimeter above 1e-9, so a tuple scored twice
    # or not at all shows in the count.
    M = extremal_value(Objective.PERIMETER, 3)
    for threads in (1, 2, 3):
        res = tail_probe(Objective.PERIMETER, 3, 0.0, (0.4, 0.5), draws, seed=99, threads=threads)
        assert res.hits == expected
        every = tail_probe(Objective.PERIMETER, 3, 0.0, (M - 1e-9, M - 2e-9), draws, 99, threads)
        assert every.hits == (draws, draws)


def test_tail_probe_guard_rejects_undersampled_epsilon():
    with pytest.raises(ValueError, match="hits"):
        tail_probe(Objective.PERIMETER, 3, 0.0, (0.2, 0.3), 10_000, seed=1)


def test_tail_probe_grid_validation():
    with pytest.raises(ValueError):
        tail_probe(Objective.PERIMETER, 3, 0.0, (0.5,), 1000, seed=1)
    with pytest.raises(ValueError):
        tail_probe(Objective.PERIMETER, 3, 0.0, (0.5, 6.0), 1000, seed=1)
    with pytest.raises(ValueError):
        tail_probe(Objective.PERIMETER, 3, 0.0, (0.5, 0.4), 0, seed=1)
    with pytest.raises(ValueError):
        # the maximum is attained with probability zero; a zero epsilon can
        # never meet the expected-hit guard
        tail_probe(Objective.PERIMETER, 3, 0.0, (0.5, 0.0), 1000, seed=1)
    with pytest.raises(ValueError, match="area needs n >= 3"):
        tail_probe(Objective.AREA, 2, 0.0, (0.5, 0.4), 1000, seed=1)


@pytest.mark.parametrize(
    "objective, grid, draws",
    [
        (Objective.PERIMETER, (0.45, 0.7), 2_000_000),
        (Objective.AREA, (0.35, 0.6), 3_000_000),
    ],
)
def test_tail_probe_n4_matches_prediction(objective, grid, draws):
    # Criterion 5's tolerances at n = 4, beta = 0 (C = 5.5).  The smallest
    # epsilon expects ~300 hits; at these epsilons the area tail still runs
    # ~10% above its leading term (measured with 10^7 draws per epsilon).
    res = tail_probe(objective, 4, 0.0, grid, draws, seed=42)
    C = shape_C(4, 0.0)
    assert abs(res.fitted_slope - C) / C < 0.10
    eps = res.epsilon_grid[-1]
    predicted = tail_prefactor(objective, 4, 0.0) * eps**C
    assert abs(res.hit_probabilities[-1] - predicted) / predicted < 0.20


def test_consistency_check_basics():
    cfg = _small_config()
    recs = [r for r in run_trials(cfg, threads=1) if r.N == 90]
    report = consistency_check(recs, PERIMETER_LAW, delta=math.inf)
    assert report.fraction_below == 1.0
    assert report.N == 90 and report.trials == len(recs)
    assert set(report.deficiency_quantiles) == {"q50", "q90", "q99", "max"}
    with pytest.raises(ValueError):
        consistency_check([], PERIMETER_LAW)
    with pytest.raises(ValueError):
        consistency_check(run_trials(cfg, threads=1), PERIMETER_LAW)  # mixed N


def test_summary_and_file_writers(tmp_path):
    cfg = _small_config(trials=120)
    recs = run_trials(cfg, threads=2)
    summary = build_summary(cfg, recs, PERIMETER_LAW)
    assert [row["N"] for row in summary["per_N"]] == [40, 90]
    assert summary["consistency"]["N"] == 90
    assert summary["law"]["C"] == pytest.approx(4.0)
    assert 0.0 <= summary["per_N"][0]["ks_distance"] <= 1.0

    trials_path = tmp_path / "trials.csv"
    write_trials_csv(trials_path, recs)
    lines = trials_path.read_text().splitlines()
    assert lines[0] == "N,trial,H,T,hull_size,micros"
    assert len(lines) == 1 + len(recs)
    assert all(line.endswith(",0") for line in lines[1:])  # timing never in file

    ecdf = EmpiricalCDF.from_samples([r.T for r in recs if r.N == 90])
    ecdf_path = tmp_path / "ecdf.csv"
    write_ecdf_csv(ecdf_path, ecdf, PERIMETER_LAW)
    lines = ecdf_path.read_text().splitlines()
    assert lines[0] == "t,F_emp,F_limit"
    assert len(lines) == 1 + 120
    first = [float(x) for x in lines[1].split(",")]
    assert first[1] == pytest.approx(1.0 / 120.0)
    assert first[2] == pytest.approx(float(weibull_cdf(PERIMETER_LAW, first[0])), rel=1e-12)


def test_run_trials_area_objective():
    cfg = _small_config(objective=Objective.AREA, N_list=(30, 60), trials=15)
    recs = run_trials(cfg, threads=1)
    area_law = law_for(Objective.AREA, 3, 0.0)
    for r in recs:
        assert 0.0 < r.H <= area_law.M + 1e-9
        assert r.T >= -1e-9


def test_tail_probe_area_objective():
    res = tail_probe(Objective.AREA, 3, 0.0, (0.25, 0.3), 300_000, seed=4)
    pref = tail_prefactor(Objective.AREA, 3, 0.0)
    for eps, p in zip(res.epsilon_grid, res.hit_probabilities):
        assert p == pytest.approx(pref * eps**4, rel=0.30)
