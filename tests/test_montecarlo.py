import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path

import numpy as np
import pytest

import helpers
from betapoly import montecarlo, sampler
from betapoly.geometry import (
    Objective,
    _monotone_chain,
    _rotate_min_first,
    convex_hull,
    hull_functional,
    max_kgon,
    umax_bruteforce,
    uniform_hulls,
)
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
from betapoly.sampler import (
    BetaParams,
    SeedPolicy,
    points_from_uniforms,
    sample_batch,
    select_uniforms,
)

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
    # An infinite cutoff would write "delta": Infinity, which is not JSON.
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            _small_config(consistency_delta=bad)
    # A repeated N would be listed twice in summary.json with doubled trials.
    for bad in ((250, 250), (40, 90, 40)):
        with pytest.raises(ValueError, match=f"got N = {bad[0]} more than once"):
            _small_config(N_list=bad)
    # Rejected when built, not later in run_trials or numpy.
    for bad in (2.5, 25.0, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            _small_config(trials=bad)
    for bad in ((100.0,), (40, 90.5), (True, 40)):
        with pytest.raises(ValueError, match="every N must be an integer"):
            _small_config(N_list=bad)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="beta must be finite"):
            _small_config(beta=bad)
    # True would run as beta = 1 and write "beta": true into summary.json.
    with pytest.raises(ValueError, match="beta must be a number"):
        _small_config(beta=True)
    for bad in (1.5, 11.0, True, -1):
        with pytest.raises(ValueError, match="master_seed"):
            _small_config(master_seed=bad)
    _small_config(N_list=(np.int64(40),), trials=np.int32(3), master_seed=np.uint64(11))
    # Refused when built, by the kernel's rule, not later by run_trials.
    with pytest.raises(ValueError, match="area kernel needs n >= 3, got 2"):
        _small_config(objective=Objective.AREA, n=2)
    # Numpy integers are stored as ints, so summary.json can be written.
    cfg = SimConfig(
        Objective.PERIMETER, np.int64(3), 0.0, (np.int64(300),), np.int64(4), np.uint64(7)
    )
    assert all(type(v) is int for v in (cfg.n, *cfg.N_list, cfg.trials, cfg.master_seed))
    law = law_for(cfg.objective, 3, 0.0)
    json.loads(json.dumps(build_summary(cfg, run_trials(cfg, threads=1), law)))
    # Numpy floats are stored as Python floats, so single precision never
    # reaches the sampler and summary.json can be written.
    cfg = _small_config(beta=np.float32(0.5), consistency_delta=np.float32(0.25))
    assert (cfg.beta, cfg.consistency_delta) == (0.5, 0.25)
    assert type(cfg.beta) is type(cfg.consistency_delta) is float
    law = law_for(cfg.objective, cfg.n, cfg.beta)
    json.loads(json.dumps(build_summary(cfg, run_trials(cfg, threads=1), law)))
    for bad in ("0.5", None, 1 + 0j):
        with pytest.raises(ValueError, match="beta must be a number"):
            _small_config(beta=bad)
        with pytest.raises(ValueError, match="delta must be a number"):
            _small_config(consistency_delta=bad)


@pytest.mark.parametrize("beta", [0.5, -0.5])
@pytest.mark.parametrize("kind", [np.float32, np.float16, np.float64])
def test_a_numpy_beta_computes_what_the_python_float_does(kind, beta):
    def results(b):
        return {
            "points": sample_batch(BetaParams(b), 50, SeedPolicy(3), 1).tobytes().hex(),
            "floor": sampler.radius_uniform_floor(BetaParams(b), 0.99),
            "law": {o.value: law_for(o, 3, b).constants() for o in Objective},
            "prefactor": tail_prefactor(Objective.AREA, 4, b),
            "C": shape_C(3, b),
        }

    same = results(beta)
    got = results(kind(beta))
    assert got == same
    assert json.dumps(got) == json.dumps(same)  # the floats are Python floats
    assert all(type(v) is float for v in got["law"]["area"].values())


def test_sim_config_rejects_a_non_integer_n():
    with pytest.raises(ValueError, match="n must be an integer, got 3.5"):
        _small_config(n=3.5)


def _assert_trial_touches_few_points(monkeypatch, N):
    """Run one trial of N points and check what it draws and converts."""
    counts = {"radii": 0, "coordinates": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += len(args[1])
            return fn(*args, **kwargs)

        return wrapper

    pts = sample_batch(BetaParams(0.0), N, SeedPolicy(42), 0)
    inverse = counted(sampler._radius_from_uniform, "radii")
    monkeypatch.setattr(sampler, "_radius_from_uniform", inverse)
    monkeypatch.setattr(sampler, "cartesian", counted(sampler.cartesian, "coordinates"))
    log = helpers.count_draws(monkeypatch)
    law = law_for(Objective.PERIMETER, 3, 0.0)
    (record,) = montecarlo._run_batch((Objective.PERIMETER, 3, 0.0, 42, N, 0, 1, law.M, law.A))
    bound = min(N // 20, sampler._CHUNK + 8 * math.isqrt(N))
    assert 0 < counts["radii"] < bound
    assert 0 < counts["coordinates"] < bound
    # At seed 42 the far set clears its own floor, so one pass draws the
    # radius block alone, a chunk at a time, and jumps to the kept angles.
    chunk = sampler._CHUNK
    assert N > chunk and log.requests[0] == [min(chunk, N - lo) for lo in range(0, N, chunk)]
    assert log.generators == [(0, 0)]
    assert record.H == max_kgon(convex_hull(pts), pts, 3, Objective.PERIMETER).value
    assert record.H == max_kgon(helpers.chain_hull(pts), pts, 3, Objective.PERIMETER).value


def test_a_trial_gives_radii_and_coordinates_to_few_points(monkeypatch):
    # A trial filters its points on their radius uniforms, so at N = 10^5
    # only ~1 000 points get the inverse CDF, an angle and cos/sin.  A return
    # to whole-array transcendental functions shows here as N radii.  Beyond
    # a chunk the radius block is streamed: no draw asks for more than a
    # chunk, the angle block is not drawn at all, and radii and coordinates
    # stay below a chunk plus O(sqrt N).
    _assert_trial_touches_few_points(monkeypatch, 100_000)


def test_a_trial_of_many_chunks_holds_a_chunk_of_uniforms_at_a_time(monkeypatch):
    # 245 chunks of 4 096: the radii and coordinates, ~2 sqrt N, stay far
    # below N / 20.
    monkeypatch.setattr(sampler, "_CHUNK", 4096)
    _assert_trial_touches_few_points(monkeypatch, 1_000_000)


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


def test_trial_wall_times_are_positive_and_sum_within_the_run():
    # A record's wall_time is an equal share of its batch's time, its hull
    # call (which reads the streams) and its DP call, so in one process the
    # records sum to the campaign's compute time, which the run's elapsed
    # time holds.
    cfg = _small_config(N_list=(40, 300, 70_000), trials=3)
    start = time.perf_counter()
    recs = run_trials(cfg, threads=1)
    elapsed = time.perf_counter() - start
    assert all(r.wall_time > 0.0 for r in recs)
    assert sum(r.wall_time for r in recs) <= elapsed


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


def test_trials_match_the_oracle_on_the_chain_hull():
    # The sim-accept workload's first two trials at each N, checked as
    # perfbench's gate checks them, but on the monotone chain's hull, which
    # no trial runs: hull_size is the chain's vertex count and H the brute
    # force over the chain's vertices.  The gate takes its hull from
    # convex_hull, the trials' own elimination.
    cfg = _small_config(N_list=(250, 1_000, 4_000), trials=2, master_seed=42)
    for r in run_trials(cfg, threads=1):
        pts = sample_batch(BetaParams(cfg.beta), r.N, SeedPolicy(cfg.master_seed), r.trial_index)
        hull = sorted(helpers.chain_hull(pts).vertex_indices)
        assert r.hull_size == len(hull)
        assert r.H == umax_bruteforce(pts[hull], cfg.n, cfg.objective).value


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("beta", [-0.9, 0.0, 2.0])
def test_trials_equal_the_full_sample_path(objective, beta):
    # A trial gives coordinates only to the points its radius filter keeps;
    # their hull, H and the hull size must still be those of the whole
    # sample, bit for bit, and the monotone chain's.  N = 127 / 128 have far
    # sets of a quarter of their points.
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
            select = functools.partial(select_uniforms, policy, t, N)
            keep, cand, cand_hull = uniform_hulls(params, N, [select])[0]
            assert np.array_equal(cand, pts[keep])
            kept_hull = tuple(int(keep[i]) for i in cand_hull.vertex_indices)
            assert kept_hull == hull.vertex_indices
            assert kept_hull == tuple(_rotate_min_first(_monotone_chain(pts)))
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


@pytest.mark.parametrize("chunk", [97, 128, 1_000])
def test_chunked_trials_equal_the_full_sample_path(monkeypatch, chunk):
    # The stream read in chunks of any size, most trials over several of
    # them, gives H and hull sizes bit-equal to the whole sample's.
    monkeypatch.setattr(sampler, "_CHUNK", chunk)
    for beta, Ns in ((-0.9, (300, 1_100)), (0.0, (300, 2_500)), (2.0, (300, 2_500))):
        cfg = _small_config(beta=beta, N_list=Ns, trials=2)
        for r in run_trials(cfg, threads=1):
            pts = sample_batch(BetaParams(beta), r.N, SeedPolicy(cfg.master_seed), r.trial_index)
            for hull in (convex_hull(pts), helpers.chain_hull(pts)):
                assert max_kgon(hull, pts, cfg.n, cfg.objective).value == r.H
                assert len(hull.vertex_indices) == r.hull_size


def test_a_streamed_trial_replays_its_stream_when_the_far_set_falls_short(monkeypatch):
    # At seed 5, beta = 0, N = 1 000 the far set's disk floor falls below
    # the far set's own floor, so a streamed trial reads its stream twice, a
    # chunk at a time, one generator a pass: the radius block, then the
    # angle block, as ~95 kept points of 1 000 are too many for a jump to
    # pay.
    N = 1_000
    pts = sample_batch(BetaParams(0.0), N, SeedPolicy(5), 0)
    expected = max_kgon(convex_hull(pts), pts, 3, Objective.AREA)
    chain = helpers.chain_hull(pts)
    assert max_kgon(chain, pts, 3, Objective.AREA).value == expected.value
    monkeypatch.setattr(sampler, "_CHUNK", 97)
    log = helpers.count_draws(monkeypatch)
    law = law_for(Objective.AREA, 3, 0.0)
    (record,) = montecarlo._run_batch((Objective.AREA, 3, 0.0, 5, N, 0, 1, law.M, law.A))
    draws = log.requests[0]
    assert sum(draws) == 4 * N and max(draws) == 97
    assert log.generators == [(0, 0)] * 2
    assert (record.H, record.hull_size) == (expected.value, len(convex_hull(pts).vertex_indices))
    assert record.hull_size == len(chain.vertex_indices)


def test_trials_above_the_jump_switch_are_the_same_on_either_angle_path(monkeypatch):
    # At N = 6 x 10^4, below a chunk, and 3 x 10^5 each trial's far set
    # (~490 and ~1 100 points) gets its angle uniforms by the jump.  Two
    # workers, or the angle block drawn in chunks, give the same records,
    # and they are the whole sample's.
    assert not sampler._jump_pays(281, 20_000) and sampler._jump_pays(2_055, 10**6)
    Ns, jumps = (60_000, 300_000), []
    cfg = _small_config(objective=Objective.AREA, N_list=Ns, trials=3, master_seed=7)
    jump = sampler._jumped_uniforms
    monkeypatch.setattr(sampler, "_jumped_uniforms", lambda *a: jumps.append(a) or jump(*a))
    runs = [run_trials(cfg, threads=1)]
    assert len(jumps) == len(Ns) * cfg.trials
    runs.append(run_trials(cfg, threads=2))
    monkeypatch.setattr(sampler, "_jump_pays", lambda kept, count: False)
    jumps.clear()
    runs.append(run_trials(cfg, threads=1))
    assert not jumps
    keys = [[(r.N, r.trial_index, r.H, r.T, r.hull_size) for r in recs] for recs in runs]
    assert keys[0] == keys[1] == keys[2]
    for r in runs[0][:: cfg.trials]:
        pts = sample_batch(BetaParams(0.0), r.N, SeedPolicy(7), 0)
        chain = helpers.chain_hull(pts)
        expected = max_kgon(chain, pts, 3, Objective.AREA).value
        assert (r.H, r.hull_size) == (expected, len(chain.vertex_indices))


def _in_process_pool(monkeypatch):
    """Replace ``montecarlo``'s pool class with one that runs in this process.

    Returns the list of the ``max_workers`` each pool was asked for.
    """
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
    return started


def test_run_trials_starts_no_more_workers_than_trials(monkeypatch):
    # A fork-started pool starts every worker at once, so 16 threads on 8
    # batches must ask for 8, 8 threads on 3 batches for 3, and any threads
    # on one batch for none.  Batches of 2 trials at N = 40; the pool is
    # replaced by an in-process one.
    started = _in_process_pool(monkeypatch)
    monkeypatch.setattr(montecarlo, "_BATCH_POINTS", 80)
    for trials, threads in ((16, 16), (5, 8), (2, 8)):
        cfg = _small_config(N_list=(40,), trials=trials)
        runs = [run_trials(cfg, threads=t) for t in (threads, 1)]
        keys = [[(r.N, r.trial_index, r.H, r.hull_size) for r in recs] for recs in runs]
        assert keys[0] == keys[1]
    assert started == [8, 3]


@pytest.mark.parametrize("threads", [2.5, True, 1.0])
def test_both_probes_reject_a_thread_count_that_is_not_an_integer(monkeypatch, threads):
    started = _in_process_pool(monkeypatch)
    with pytest.raises(ValueError, match="threads"):
        run_trials(_small_config(N_list=(40,), trials=8), threads=threads)
    with pytest.raises(ValueError, match="threads"):
        tail_probe(Objective.PERIMETER, 3, 0.0, (0.4, 0.5), 600_000, seed=99, threads=threads)
    assert started == []


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


_HAS_FORK = "fork" in get_all_start_methods()


def _pool_started_by(monkeypatch, method):
    """Start ``montecarlo``'s pools by the start ``method``.

    Only ``fork`` workers see this process's monkeypatched constants: under
    ``forkserver`` or ``spawn`` a worker imports the package afresh.
    """
    pool = functools.partial(ProcessPoolExecutor, mp_context=get_context(method))
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", pool)


def test_tail_probe_blocks_do_not_change_the_hits(monkeypatch):
    # The chunk fixes the stream; the block only bounds memory.  A small
    # chunk gives this small probe enough chunks to run on the process pool.
    monkeypatch.setattr(montecarlo, "_TAIL_CHUNK", 2_000)
    if _HAS_FORK:
        _pool_started_by(monkeypatch, "fork")
    args = (Objective.AREA, 4, 0.0, (0.9, 1.1), 6_400)
    whole = tail_probe(*args, seed=6, threads=1).hits
    for block in (7, 1_000):
        monkeypatch.setattr(montecarlo, "_TAIL_BLOCK", block)
        assert tail_probe(*args, seed=6, threads=1).hits == whole
        if _HAS_FORK:
            assert tail_probe(*args, seed=6, threads=2).hits == whole


def test_tail_probe_draws_each_uniform_once(monkeypatch):
    # A job is a whole chunk of tuples, drawn by one worker a block at a
    # time: each epsilon's 260 000 tuples are a full chunk and a 10 000-tuple
    # last one, two generators each.  The 2-worker pool runs in this
    # process, so the draws are counted here.
    args = (Objective.PERIMETER, 3, 0.0, (0.4, 0.5), 260_000, 99)
    serial = tail_probe(*args, threads=1)
    started = _in_process_pool(monkeypatch)
    log = helpers.count_draws(monkeypatch)
    assert tail_probe(*args, threads=2) == serial
    assert started == [2]
    assert [sum(log.requests[k]) for k in (0, 1)] == [2 * 3 * 260_000] * 2
    assert max(max(r) for r in log.requests.values()) == 3 * montecarlo._TAIL_BLOCK
    assert len(log.generators) == 2 * 2 * 2


def test_tail_probe_starts_no_more_workers_than_full_chunks(monkeypatch):
    # Below a full chunk of tuples per worker a pool costs more than it
    # gives, so the tail-n4 workload's probe runs in the calling process,
    # and two full chunks get two workers however many are asked for.
    started = _in_process_pool(monkeypatch)
    tail_probe(Objective.AREA, 4, 0.0, (0.9, 1.0, 1.1), 6_400, seed=42, threads=2)
    assert started == []
    args = (Objective.PERIMETER, 3, 0.0, (0.4, 0.5), 260_000, 99)
    assert tail_probe(*args, threads=8) == tail_probe(*args, threads=1)
    assert started == [2]


@pytest.mark.skipif("forkserver" not in get_all_start_methods(), reason="no forkserver")
def test_both_probes_run_on_a_forkserver_pool(monkeypatch):
    # A forkserver worker (the default start method on Linux from Python
    # 3.14) gets each job by pickling, so a job that is a closure fails
    # here, and it sees none of the parent's monkeypatches.
    _pool_started_by(monkeypatch, "forkserver")
    args = (Objective.AREA, 4, 0.0, (0.9, 1.1), 520_000, 5)
    assert tail_probe(*args, threads=2) == tail_probe(*args, threads=1)
    cfg = _small_config(N_list=(40,), trials=8)
    runs = [run_trials(cfg, threads=t) for t in (2, 1)]
    keys = [[(r.N, r.trial_index, r.H, r.T, r.hull_size) for r in recs] for recs in runs]
    assert keys[0] == keys[1]


_PROBE_WORKER_IMPORTS = """
import functools, sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from betapoly import montecarlo

def loaded(_):
    return "numpy.random" in sys.modules

if __name__ == "__main__":
    assert "numpy.random" not in sys.modules, "the package imports it"
    pool = functools.partial(ProcessPoolExecutor, mp_context=get_context("fork"))
    montecarlo.ProcessPoolExecutor = pool
    print(montecarlo._map(loaded, list(range(4)), 2, 4))
    print("numpy.random" in sys.modules)
"""


@pytest.mark.skipif(not _HAS_FORK, reason="no fork")
def test_pool_workers_find_numpy_random_imported(tmp_path):
    # _map imports numpy.random before its pool forks, so a worker does
    # not import it during its first job.  A fresh interpreter, as this one
    # has imported it long ago.
    script = tmp_path / "probe.py"
    script.write_text(_PROBE_WORKER_IMPORTS)
    env = dict(os.environ, PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, str(script)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.split("\n")[:2] == ["[True, True, True, True]", "True"]


def _sequential_hits(objective, n, beta, eps, draws, seed):
    """The chunked stream scored chunk by chunk, as one generator draws it.

    Drawn with ``rng.random`` alone, so the stream layout under test is not
    its own reference.
    """
    params = BetaParams(beta)
    M = extremal_value(objective, n)
    hits = []
    for k, e in enumerate(sorted(eps, reverse=True)):
        rng = SeedPolicy(seed).trial_generator(k)
        count = 0
        for start in range(0, draws, montecarlo._TAIL_CHUNK):
            m = min(montecarlo._TAIL_CHUNK, draws - start)
            pts = points_from_uniforms(params, rng.random(m * n), rng.random(m * n))
            vals = hull_functional(pts.reshape(m, n, 2), objective)
            count += int(np.count_nonzero(vals >= M - e))
        hits.append(count)
    return tuple(hits)


def test_tail_probe_ragged_draws_reproduce_the_sequential_stream(monkeypatch):
    # Two chunks, the second cut into three whole blocks and a ragged tail.
    # The probe scores only the tuples its radius prefilter keeps; the
    # reference scores every tuple.
    draws = montecarlo._TAIL_CHUNK + 3 * montecarlo._TAIL_BLOCK + 7
    # Both chunks drawn a block at a time (the default), the ragged one
    # alone in one block, and both in one block.
    blocks = (montecarlo._TAIL_BLOCK, draws - montecarlo._TAIL_CHUNK, draws)
    if _HAS_FORK:
        _pool_started_by(monkeypatch, "fork")
    cases = [(Objective.PERIMETER, 0.0, (0.4, 0.5)), (Objective.AREA, -0.5, (0.25, 0.3))]
    for objective, beta, eps in cases:
        expected = _sequential_hits(objective, 3, beta, eps, draws, 99)
        # Nearly every triangle has perimeter and area above 1e-9, so a
        # tuple scored twice or not at all shows in the count.
        M = extremal_value(objective, 3)
        every = (M - 1e-9, M - 2e-9)
        for block in blocks:
            monkeypatch.setattr(montecarlo, "_TAIL_BLOCK", block)
            for threads in (1, 2, 3) if _HAS_FORK else (1,):
                res = tail_probe(objective, 3, beta, eps, draws, 99, threads)
                assert res.hits == expected
                assert all(h <= s < draws // 2 for h, s in zip(res.hits, res.scored))
                res = tail_probe(objective, 3, beta, every, draws, 99, threads)
                assert res.hits == res.scored == (draws, draws)


def test_tail_probe_guard_rejects_undersampled_epsilon():
    with pytest.raises(ValueError, match="hits"):
        tail_probe(Objective.PERIMETER, 3, 0.0, (0.2, 0.3), 10_000, seed=1)


def test_tail_probe_drops_zero_hit_epsilons_from_the_fit(monkeypatch):
    # Without the expected-hit guard a tiny epsilon can get no hits at all.
    # It is the smallest, so it takes the last stream and the others keep
    # theirs: the fit must be that of the grid without it.
    monkeypatch.setattr(montecarlo, "MIN_EXPECTED_HITS", 0.0)
    with pytest.warns(RuntimeWarning, match="zero hits at epsilon"):
        res = tail_probe(Objective.PERIMETER, 3, 0.0, (1e-9, 0.5, 1.0), 2_000, seed=3)
    assert res.hits[-1] == 0 and min(res.hits[:-1]) > 0
    without = tail_probe(Objective.PERIMETER, 3, 0.0, (0.5, 1.0), 2_000, seed=3)
    assert res.hits[:-1] == without.hits
    assert res.fitted_slope == without.fitted_slope
    assert res.fitted_log_prefactor == without.fitted_log_prefactor


def test_tail_probe_needs_two_epsilons_with_hits(monkeypatch):
    monkeypatch.setattr(montecarlo, "MIN_EXPECTED_HITS", 0.0)
    with pytest.warns(RuntimeWarning, match="zero hits at epsilon"):
        with pytest.raises(ValueError, match="fewer than 2 grid points"):
            tail_probe(Objective.PERIMETER, 3, 0.0, (1e-9, 2e-9, 1.0), 2_000, seed=3)


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
    with pytest.raises(ValueError, match="area kernel needs n >= 3, got 2"):
        tail_probe(Objective.AREA, 2, 0.0, (0.5, 0.4), 1000, seed=1)
    for bad in (1000.0, 1000.5, True):
        with pytest.raises(ValueError, match="draws_per_epsilon must be an integer"):
            tail_probe(Objective.PERIMETER, 3, 0.0, (0.5, 0.4), bad, seed=1)
    for bad in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            tail_probe(Objective.PERIMETER, 3, 0.0, (0.5, 0.4), 1000, seed=bad)
    # A NaN passed both range checks and sorted out of place, and the
    # expected-hit guard read min(1, nan) as 1.
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"epsilons must be finite, got {bad}"):
            tail_probe(Objective.PERIMETER, 3, 0.0, (0.4, bad, 0.5), 300_000, seed=1)
    # float() took "0.5" and True (as 1.0) for epsilons.
    for bad in ("0.5", True, None):
        with pytest.raises(ValueError, match="every epsilon must be a number"):
            tail_probe(Objective.PERIMETER, 3, 0.0, (0.4, bad), 300_000, seed=1)


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
    report = consistency_check(recs, PERIMETER_LAW, delta=2.0 * PERIMETER_LAW.M)  # > M - H
    assert report.fraction_below == 1.0
    assert report.N == 90 and report.trials == len(recs)
    assert set(report.deficiency_quantiles) == {"q50", "q90", "q99", "max"}
    with pytest.raises(ValueError):
        consistency_check([], PERIMETER_LAW)
    with pytest.raises(ValueError):
        consistency_check(run_trials(cfg, threads=1), PERIMETER_LAW)  # mixed N
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            consistency_check(recs, PERIMETER_LAW, delta=bad)


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
