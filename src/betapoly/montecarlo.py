"""Reproducible Monte Carlo harness for the extremal-polygon limit claims.

Four probes, all pure functions of their configuration (seeds included):

* ``run_trials``: simulate the scaled deficiency ``T = N^A * (M - H_N)``
  across sample sizes; trials are embarrassingly parallel with per-trial
  derived seeds and are always aggregated in (N, trial) order, so the output
  is byte-stable under any worker count.
* ``ks_distance`` / ``fit_shape``: compare the empirical law of ``T`` against
  the fully specified Weibull limit, and recover its shape/rate from the
  lower quantiles via a log-log regression of ``ln(-ln(1 - F))`` on ``ln t``.
* ``tail_probe``: estimate ``P[f >= M - eps]`` by direct n-point sampling on
  an epsilon grid and fit the log-log slope and prefactor; slices of each
  epsilon's stream are scored on a thread pool by jumping ahead in it, so
  the hits are identical under any thread count.
* ``consistency_check``: fraction of trials with deficiency below a cutoff.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Objective, convex_hull, hull_functional, max_kgon, polar_candidates
from .kernels import analytic_I
from .limits import LimitLaw, compute_K, extremal_value, law_for, shape_C, weibull_cdf
from .sampler import BetaParams, SeedPolicy, cartesian, draw_polar, points_from_uniforms

DEFAULT_SHAPE_WINDOW = (0.05, 0.6)
MIN_FIT_POINTS = 100
MIN_EXPECTED_HITS = 100.0
CONSISTENCY_DELTA = 0.01
# Tuples per tail_probe chunk.  Each chunk takes its angles, then its radii,
# from the epsilon's stream, so this fixes the stream: changing it changes
# the hits.
_TAIL_CHUNK = 250_000
# Most tuples a tail_probe job scores at once.  Bounds memory (and keeps the
# working set in cache) only: any value gives the same hits.
_TAIL_BLOCK = 1 << 13


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: objective, parameters, sizes, budget, seed."""

    objective: Objective
    n: int
    beta: float
    N_list: tuple[int, ...]
    trials: int
    master_seed: int
    consistency_delta: float = CONSISTENCY_DELTA

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.N_list:
            raise ValueError("N_list must be nonempty")
        if any(N < self.n for N in self.N_list):
            raise ValueError(f"every N must be >= n={self.n}, got {self.N_list}")
        if not (self.consistency_delta > 0.0):
            raise ValueError("consistency_delta must be positive")


@dataclass(frozen=True)
class TrialRecord:
    """One trial: sample size, index, raw maximum H, scaled deficiency T."""

    N: int
    trial_index: int
    H: float
    T: float
    hull_size: int
    wall_time: float


@dataclass(frozen=True)
class EmpiricalCDF:
    """Sorted sample with right-continuous step-function evaluation."""

    sorted_values: np.ndarray

    @classmethod
    def from_samples(cls, values) -> "EmpiricalCDF":
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise ValueError("empirical CDF needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        return cls(sorted_values=arr)

    def evaluate(self, t: float | np.ndarray) -> float | np.ndarray:
        pos = np.searchsorted(self.sorted_values, np.asarray(t, dtype=float), side="right")
        out = pos / self.sorted_values.size
        return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class ShapeFit:
    """Weibull shape/rate recovered from the lower quantiles of an ECDF."""

    c_hat: float
    b_hat: float
    c_stderr: float
    log_b_stderr: float
    n_points: int


@dataclass(frozen=True)
class TailProbeResult:
    """Hit probabilities on a descending epsilon grid plus the log-log fit."""

    epsilon_grid: tuple[float, ...]
    hit_probabilities: tuple[float, ...]
    hits: tuple[int, ...]
    draws_per_epsilon: int
    fitted_slope: float
    fitted_log_prefactor: float
    slope_stderr: float
    log_prefactor_stderr: float


@dataclass(frozen=True)
class ConsistencyReport:
    """How often the deficiency M - H_N fell below the cutoff at one N."""

    N: int
    trials: int
    delta: float
    fraction_below: float
    deficiency_quantiles: dict[str, float]


def _trial_candidates(
    params: BetaParams, policy: SeedPolicy, N: int, trial_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and coordinates of the trial's points that can be hull vertices.

    The trial's points are ``sample_batch(params, N, policy, trial_index)``.
    They are drawn in polar form and filtered on their radii
    (``polar_candidates``), so only the farthest points and the candidates
    get Cartesian coordinates; these are that array's rows at the returned
    indices, bit for bit.
    """
    phi, r = draw_polar(params, policy.trial_generator(trial_index), N)
    keep = polar_candidates(r, lambda idx: cartesian(phi[idx], r[idx]))
    return keep, cartesian(phi[keep], r[keep])


def _run_one(args) -> TrialRecord:
    """One trial: ``H`` from the hull of the trial's candidate points.

    The candidates' coordinates are the rows ``sample_batch`` would return
    for them, in their original order, and every other point is interior to
    the hull.  So ``H`` and ``hull_size`` equal those of
    ``sample_batch -> convex_hull -> max_kgon`` bit for bit.
    """
    objective, n, beta, master_seed, N, trial_index, M, A = args
    start = time.perf_counter()
    _, points = _trial_candidates(BetaParams(beta), SeedPolicy(master_seed), N, trial_index)
    hull = convex_hull(points)
    result = max_kgon(hull, points, n, objective)
    elapsed = time.perf_counter() - start
    return TrialRecord(
        N=N,
        trial_index=trial_index,
        H=result.value,
        T=N**A * (M - result.value),
        hull_size=len(hull.vertex_indices),
        wall_time=elapsed,
    )


def _workers(threads: int | None) -> int:
    workers = threads if threads is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"threads must be >= 1, got {workers}")
    return workers


def run_trials(config: SimConfig, threads: int | None = None) -> list[TrialRecord]:
    """Simulate all (N, trial) pairs; deterministic for a fixed master seed.

    ``threads`` only affects speed: each trial derives its own generator from
    (master_seed, trial_index), and records are returned in (N, trial) order.
    """
    law = law_for(config.objective, config.n, config.beta)
    jobs = [
        (config.objective, config.n, config.beta, config.master_seed, N, t, law.M, law.A)
        for N in config.N_list
        for t in range(config.trials)
    ]
    workers = _workers(threads)
    if workers == 1 or len(jobs) < 4:
        return [_run_one(j) for j in jobs]
    chunk = max(1, len(jobs) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs, chunksize=chunk))


def ks_distance(ecdf: EmpiricalCDF, law: LimitLaw) -> float:
    """Sup distance between the ECDF and the limit CDF, taken at the jumps."""
    t = ecdf.sorted_values
    m = t.size
    F = np.asarray(weibull_cdf(law, t))
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - F), np.max(F - (i - 1) / m)))


def fit_shape(
    ecdf: EmpiricalCDF, quantile_window: tuple[float, float] = DEFAULT_SHAPE_WINDOW
) -> ShapeFit:
    """Least-squares Weibull plot: slope ~ C, intercept ~ ln B.

    Uses plotting positions (i - 1/2)/m restricted to the quantile window;
    below it the counts are noisy, above it 1 - exp(-B t^C) stops looking
    like a pure power.

    Raises:
        ValueError: if fewer than 100 usable points fall in the window.
    """
    lo, hi = quantile_window
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"quantile window must satisfy 0 < lo < hi < 1, got {quantile_window}")
    t = ecdf.sorted_values
    m = t.size
    p = (np.arange(1, m + 1) - 0.5) / m
    sel = (p >= lo) & (p <= hi) & (t > 0.0)
    if int(sel.sum()) < MIN_FIT_POINTS:
        raise ValueError(
            f"only {int(sel.sum())} points in the quantile window; need >= {MIN_FIT_POINTS}"
        )
    x = np.log(t[sel])
    y = np.log(-np.log1p(-p[sel]))
    slope, intercept, slope_se, intercept_se, npts = _ols_line(x, y)
    return ShapeFit(
        c_hat=slope,
        b_hat=math.exp(intercept),
        c_stderr=slope_se,
        log_b_stderr=intercept_se,
        n_points=npts,
    )


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float, int]:
    m = x.size
    xbar = float(np.mean(x))
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate regression: all abscissae equal")
    slope = float(np.sum((x - xbar) * (y - np.mean(y))) / sxx)
    intercept = float(np.mean(y) - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = max(m - 2, 1)
    s2 = float(np.sum(resid**2)) / dof
    slope_se = math.sqrt(s2 / sxx)
    intercept_se = math.sqrt(s2 * (1.0 / m + xbar**2 / sxx))
    return slope, intercept, slope_se, intercept_se, m


def tail_prefactor(objective: Objective, n: int, beta: float) -> float:
    """Leading small-eps coefficient of P[f >= M - eps]: n! * K_n * I."""
    return math.factorial(n) * compute_K(n, beta) * analytic_I(objective, n, beta)


def _tail_hits(params, objective, n, policy, k, threshold, start, m, lo, hi) -> int:
    """Hits among tuples ``[lo, hi)`` of the chunk of ``m`` tuples at tuple ``start``.

    The chunk owns raw draws ``[2ns, 2ns + nm)`` of stream ``k`` for its
    angles and the next ``nm`` for its radii, so two generators jumped ahead
    to tuple ``lo`` of the angle block and of the radius block reproduce the
    sequential draws.
    """
    angles = policy.trial_generator(k, skip=n * (2 * start + lo))
    radii = policy.trial_generator(k, skip=n * (2 * start + m + lo))
    hits = 0
    for b in range(lo, hi, _TAIL_BLOCK):
        count = n * min(_TAIL_BLOCK, hi - b)
        pts = points_from_uniforms(params, angles.random(count), radii.random(count))
        vals = hull_functional(pts.reshape(-1, n, 2), objective)
        hits += int(np.count_nonzero(vals >= threshold))
    return hits


def tail_probe(
    objective: Objective,
    n: int,
    beta: float,
    epsilon_grid,
    draws_per_epsilon: int,
    seed: int,
    threads: int | None = None,
) -> TailProbeResult:
    """Estimate P[f >= M - eps] on a grid and fit the log-log power law.

    The grid is sorted descending and each epsilon gets its own derived
    stream, so the result depends only on the grid as a set.  The stream is
    consumed in chunks of ``_TAIL_CHUNK`` tuples, each drawing its angle
    block and then its radius block; the chunk size fixes which uniforms make
    up which tuple.  Each chunk is split into up to ``threads`` jobs (``None``
    means ``os.cpu_count()``) that jump ahead to their slice of the stream,
    run on a thread pool and score at most ``_TAIL_BLOCK`` tuples at a time,
    which bounds memory only.  The pool gets no more threads than the probe
    has full chunks of tuples, so a small probe runs in the calling thread.
    Hits are integer sums over the jobs, so the result is identical for
    every thread count.  Guards each epsilon by requiring >= 100 expected
    hits under the analytic prediction; zero-hit grid points are dropped
    from the fit with a warning.

    Raises:
        ValueError: on a bad grid, a guard violation, ``threads < 1``, or
        < 2 nonzero probabilities to fit.
    """
    workers = _workers(threads)
    eps = tuple(sorted({float(e) for e in epsilon_grid}, reverse=True))
    if len(eps) < 2:
        raise ValueError("epsilon grid must contain at least 2 distinct values")
    M = extremal_value(objective, n)
    if eps[0] >= M or eps[-1] <= 0.0:
        raise ValueError(f"epsilons must lie in (0, M={M:.6g}), got {eps}")
    if draws_per_epsilon < 1:
        raise ValueError("draws_per_epsilon must be >= 1")
    prefactor = tail_prefactor(objective, n, beta)
    C = shape_C(n, beta)
    for e in eps:
        expected = draws_per_epsilon * min(1.0, prefactor * e**C)
        if expected < MIN_EXPECTED_HITS:
            raise ValueError(
                f"epsilon={e:g} expects only {expected:.1f} hits from "
                f"{draws_per_epsilon} draws (need >= {MIN_EXPECTED_HITS:.0f}); "
                "increase draws_per_epsilon or drop this epsilon"
            )

    params = BetaParams(beta)
    policy = SeedPolicy(seed)

    # Below a chunk of tuples per thread, starting the pool and handing the
    # interpreter lock back and forth cost more than the second core gives
    # (2 threads on 2 cores: 0.85x at n = 4 and 12 800 tuples; 1.36x at
    # n = 3 and 500 000 tuples, rising to 1.73x at 2 000 000).
    workers = max(1, min(workers, len(eps) * draws_per_epsilon // _TAIL_CHUNK))

    def score(job) -> int:
        k, start, m, lo, hi = job
        return _tail_hits(params, objective, n, policy, k, M - eps[k], start, m, lo, hi)

    # (epsilon index, chunk start, chunk size, lo, hi): each chunk is cut into
    # at most one job per worker and no more jobs than it has blocks.
    jobs = []
    for k in range(len(eps)):
        for start in range(0, draws_per_epsilon, _TAIL_CHUNK):
            m = min(_TAIL_CHUNK, draws_per_epsilon - start)
            parts = min(workers, -(-m // _TAIL_BLOCK))
            jobs += [(k, start, m, i * m // parts, (i + 1) * m // parts) for i in range(parts)]
    if workers == 1:
        counts = [score(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(score, jobs))
    hits = [0] * len(eps)
    for job, count in zip(jobs, counts):
        hits[job[0]] += count

    probs = [h / draws_per_epsilon for h in hits]
    usable = [(e, p) for e, p in zip(eps, probs) if p > 0.0]
    dropped = [e for e, p in zip(eps, probs) if p == 0.0]
    if dropped:
        warnings.warn(f"zero hits at epsilon(s) {dropped}; dropped from fit", RuntimeWarning)
    if len(usable) < 2:
        raise ValueError("fewer than 2 grid points with hits; cannot fit a slope")
    x = np.log([e for e, _ in usable])
    y = np.log([p for _, p in usable])
    slope, intercept, slope_se, intercept_se, _ = _ols_line(x, y)
    return TailProbeResult(
        epsilon_grid=eps,
        hit_probabilities=tuple(probs),
        hits=tuple(hits),
        draws_per_epsilon=draws_per_epsilon,
        fitted_slope=slope,
        fitted_log_prefactor=intercept,
        slope_stderr=slope_se,
        log_prefactor_stderr=intercept_se,
    )


def consistency_check(
    records: list[TrialRecord], law: LimitLaw, delta: float = CONSISTENCY_DELTA
) -> ConsistencyReport:
    """Fraction of trials whose deficiency M - H stayed below ``delta``."""
    if not records:
        raise ValueError("no trial records")
    if not (delta > 0.0):
        raise ValueError("delta must be positive")
    Ns = {r.N for r in records}
    if len(Ns) != 1:
        raise ValueError(f"records mix several sample sizes: {sorted(Ns)}")
    deficits = np.asarray([law.M - r.H for r in records])
    qs = {
        "q50": float(np.quantile(deficits, 0.50)),
        "q90": float(np.quantile(deficits, 0.90)),
        "q99": float(np.quantile(deficits, 0.99)),
        "max": float(np.max(deficits)),
    }
    return ConsistencyReport(
        N=records[0].N,
        trials=len(records),
        delta=delta,
        fraction_below=float(np.mean(deficits < delta)),
        deficiency_quantiles=qs,
    )


# ---------------------------------------------------------------------------
# File emission (17 significant digits so doubles round-trip losslessly).
# ---------------------------------------------------------------------------

TRIALS_CSV_HEADER = "N,trial,H,T,hull_size,micros"
ECDF_CSV_HEADER = "t,F_emp,F_limit"
TAIL_CSV_HEADER = "eps,draws,hits,p_hat,p_pred"


def _g17(x: float) -> str:
    return f"{x:.17g}"


def write_trials_csv(path: str | Path, records: list[TrialRecord]) -> None:
    """Write trial rows in the stored order.

    The ``micros`` column is emitted as 0: per-trial wall times live on the
    in-memory records only, so the file is a pure function of the
    configuration and stays byte-identical across reruns and worker counts.
    """
    with open(path, "w", newline="") as fh:
        fh.write(TRIALS_CSV_HEADER + "\n")
        for r in records:
            fh.write(f"{r.N},{r.trial_index},{_g17(r.H)},{_g17(r.T)},{r.hull_size},0\n")


def write_ecdf_csv(path: str | Path, ecdf: EmpiricalCDF, law: LimitLaw) -> None:
    t = ecdf.sorted_values
    m = t.size
    F_lim = np.asarray(weibull_cdf(law, t))
    with open(path, "w", newline="") as fh:
        fh.write(ECDF_CSV_HEADER + "\n")
        for i in range(m):
            fh.write(f"{_g17(float(t[i]))},{_g17((i + 1) / m)},{_g17(float(F_lim[i]))}\n")


def write_tail_csv(path: str | Path, result: TailProbeResult, prefactor: float, C: float) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(TAIL_CSV_HEADER + "\n")
        for e, h, p in zip(result.epsilon_grid, result.hits, result.hit_probabilities):
            pred = min(1.0, prefactor * e**C)
            fh.write(f"{_g17(e)},{result.draws_per_epsilon},{h},{_g17(p)},{_g17(pred)}\n")


def build_summary(config: SimConfig, records: list[TrialRecord], law: LimitLaw) -> dict:
    """Deterministic simulation summary (law constants, per-N stats, consistency)."""
    per_n = []
    for N in config.N_list:
        T = [r.T for r in records if r.N == N]
        ecdf = EmpiricalCDF.from_samples(T)
        try:
            fit = fit_shape(ecdf)
            fit_dict = {
                "C_hat": fit.c_hat,
                "B_hat": fit.b_hat,
                "C_stderr": fit.c_stderr,
                "log_B_stderr": fit.log_b_stderr,
                "n_points": fit.n_points,
            }
        except ValueError:
            fit_dict = None
        per_n.append(
            {
                "N": N,
                "trials": len(T),
                "ks_distance": ks_distance(ecdf, law),
                "median_T": float(np.median(T)),
                "fit": fit_dict,
            }
        )
    largest = max(config.N_list)
    consistency = consistency_check(
        [r for r in records if r.N == largest], law, config.consistency_delta
    )
    return {
        "objective": config.objective.value,
        "n": config.n,
        "beta": config.beta,
        "N_list": list(config.N_list),
        "trials_per_N": config.trials,
        "master_seed": config.master_seed,
        "law": law.constants(),
        "law_median_T": law.median,
        "per_N": per_n,
        "consistency": {
            "N": consistency.N,
            "trials": consistency.trials,
            "delta": consistency.delta,
            "fraction_below": consistency.fraction_below,
            "deficiency_quantiles": consistency.deficiency_quantiles,
        },
    }
