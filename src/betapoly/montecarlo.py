"""Reproducible Monte Carlo harness for the extremal-polygon limit claims.

Four probes, all pure functions of their configuration (seeds included):

* ``run_trials``: simulate the scaled deficiency ``T = N^A * (M - H_N)``
  across sample sizes; each trial draws from its own derived seed, and a
  job is a batch of consecutive trials of one ``N`` (``_BATCH_POINTS``
  points in all, or one trial above that) that makes one ``uniform_hulls``
  call, which selects each trial's points from its stream and builds all
  their hulls at once, and one stacked ``_max_kgons`` call.  Jobs run on a
  process pool (``_map``) and records are always aggregated in (N, trial)
  order, so the output is byte-stable under any worker count and batch
  size.
* ``ks_distance`` / ``fit_shape``: compare the empirical law of ``T`` against
  the fully specified Weibull limit, and recover its shape/rate from the
  lower quantiles via a log-log regression of ``ln(-ln(1 - F))`` on ``ln t``.
* ``tail_probe``: estimate ``P[f >= M - eps]`` by direct n-point sampling on
  an epsilon grid and fit the log-log slope and prefactor; each chunk of an
  epsilon's stream is one job on the same pool, drawn once, so the hits
  are identical under any worker count.  At ``n = 3`` only the
  tuples whose radius uniforms can reach ``M - eps``
  (``geometry.threshold_radius``) get coordinates and a score, 1-14% of
  them at ``beta = 0`` and eps from 0.2 to 0.5, with the same hits.
* ``consistency_check``: fraction of trials with deficiency below a cutoff.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .geometry import Objective, _max_kgons, hull_functional, threshold_radius, uniform_hulls
from .kernels import KernelSpec, analytic_I
from .limits import LimitLaw, compute_K, extremal_value, law_for, shape_C, weibull_cdf
from .sampler import (
    BetaParams,
    SeedPolicy,
    check_integer,
    check_real,
    points_from_uniforms,
    radius_uniform_floor,
    select_uniforms,
    uniform_chunks,
)

DEFAULT_SHAPE_WINDOW = (0.05, 0.6)
MIN_FIT_POINTS = 100
MIN_EXPECTED_HITS = 100.0
CONSISTENCY_DELTA = 0.01
# Tuples per tail_probe chunk.  Each chunk takes its uniform_chunks from the
# epsilon's stream, so this fixes which uniforms make up which tuple:
# changing it changes the hits.
_TAIL_CHUNK = 250_000
# Most points a run_trials job draws in all: a job is a batch of
# max(1, _BATCH_POINTS // N) trials, whose hulls share one _max_kgons call.
# Any value gives the same records.
_BATCH_POINTS = 1 << 16
# Most tuples a tail_probe job scores at once.  Bounds memory (and keeps the
# working set in cache) only: any value gives the same hits.
_TAIL_BLOCK = 1 << 13


def _check_delta(delta) -> float:
    """The consistency cutoff as a ``float``, if positive, finite and real; else ``ValueError``."""
    delta = check_real(delta, "delta")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    return delta


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign; each field holds what its check returns, so it writes to JSON."""

    objective: Objective
    n: int
    beta: float
    N_list: tuple[int, ...]
    trials: int
    master_seed: int
    consistency_delta: float = CONSISTENCY_DELTA

    def __post_init__(self) -> None:
        spec = KernelSpec(self.objective, self.n)
        checked = dict(
            objective=spec.objective,
            n=spec.n,
            beta=BetaParams(self.beta).beta,
            master_seed=SeedPolicy(self.master_seed).master_seed,
            trials=check_integer(self.trials, "trials", least=1),
            N_list=tuple(check_integer(N, "every N") for N in self.N_list),
            consistency_delta=_check_delta(self.consistency_delta),
        )
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not self.N_list:
            raise ValueError("N_list must be nonempty")
        for i, N in enumerate(self.N_list):
            if N in self.N_list[:i]:
                raise ValueError(f"every N must be distinct, got N = {N} more than once")
        if min(self.N_list) < self.n:
            raise ValueError(f"every N must be >= n={self.n}, got {self.N_list}")


@dataclass(frozen=True)
class TrialRecord:
    """One trial: sample size, index, raw maximum H, scaled deficiency T.

    ``wall_time`` is an equal share of its batch's time, the
    ``uniform_hulls`` call that reads every trial's stream and the
    ``_max_kgons`` call, so the records of a run sum to its compute time.
    It is the only field that varies between runs.
    """

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
    """Hit probabilities on a descending epsilon grid plus the log-log fit.

    ``scored`` counts, per epsilon, the tuples whose radii passed the
    prefilter and so were scored; it changes no hit.
    """

    epsilon_grid: tuple[float, ...]
    hit_probabilities: tuple[float, ...]
    hits: tuple[int, ...]
    draws_per_epsilon: int
    fitted_slope: float
    fitted_log_prefactor: float
    slope_stderr: float
    log_prefactor_stderr: float
    scored: tuple[int, ...]


@dataclass(frozen=True)
class ConsistencyReport:
    """How often the deficiency M - H_N fell below the cutoff at one N."""

    N: int
    trials: int
    delta: float
    fraction_below: float
    deficiency_quantiles: dict[str, float]


def _run_batch(job) -> list[TrialRecord]:
    """Trials ``first`` to ``first + count - 1`` of one ``N``: one hull call, one DP call.

    ``job`` is ``(objective, n, beta, master_seed, N, first, count, M, A)``.
    Trial ``t``'s selector is ``select_uniforms`` on its stream, so its
    points are ``sample_batch(params, N, policy, t)``, left as uniforms and
    drawn ``sampler._CHUNK`` points at a time: a trial holds ``O(_CHUNK)``
    uniforms and the ``O(sqrt N)`` points its circle test keeps (more
    where ``beta`` nears -1), not ``N``.  ``uniform_hulls`` gives
    coordinates only to those points, which are that array's rows bit for
    bit, and builds its hulls with ``convex_hull``'s routine; the
    unchecked ``_max_kgons`` (the points are finite by construction) finds
    each hull's cycle as ``max_kgon`` does.  So where the hulls agree
    (every sample of ``benchmarks/hull_agreement.txt``), ``H`` and
    ``hull_size`` equal those of ``sample_batch -> convex_hull -> max_kgon``
    bit for bit, whatever the batch.
    """
    objective, n, beta, master_seed, N, first, count, M, A = job
    policy, params = SeedPolicy(master_seed), BetaParams(beta)
    start = time.perf_counter()
    selectors = [partial(select_uniforms, policy, t, N) for t in range(first, first + count)]
    cases = [(hull, points) for _, points, hull in uniform_hulls(params, N, selectors)]
    results = _max_kgons(cases, n, objective)
    share = (time.perf_counter() - start) / count
    return [
        TrialRecord(
            N=N,
            trial_index=first + b,
            H=result.value,
            T=N**A * (M - result.value),
            hull_size=len(hull.vertex_indices),
            wall_time=share,
        )
        for b, (result, (hull, _)) in enumerate(zip(results, cases))
    ]


def _map(fn, jobs: list, threads: int | None, busy: int) -> list:
    """``[fn(job) for job in jobs]``: the one rule for how many processes run.

    ``threads`` must be an integer ``>= 1``; ``None`` means one per core.
    A pool starts all its workers at once, so the jobs run on
    ``min(threads, busy)`` processes, ``busy`` being the most workers the
    caller's jobs can keep busy, and in the calling process when that is at
    most 1.  A pool pickles ``fn`` and each job, so ``fn`` must be a
    module-level function.
    """
    if threads is None:
        threads = os.cpu_count() or 1
    workers = min(check_integer(threads, "threads", least=1), busy)
    if workers <= 1:
        return [fn(job) for job in jobs]
    # The jobs draw with numpy.random.  Imported here, not with the package,
    # so start-up does not pay for it, and before the pool forks, so that no
    # worker imports it during its first job.
    import numpy.random  # noqa: F401

    chunk = max(1, len(jobs) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunk))


def run_trials(config: SimConfig, threads: int | None = None) -> list[TrialRecord]:
    """Simulate all (N, trial) pairs; deterministic for a fixed master seed.

    ``threads`` only affects speed: each trial derives its own generator from
    (master_seed, trial_index), and records are returned in (N, trial) order.
    A job (``_run_batch``) is a batch of ``max(1, _BATCH_POINTS // N)``
    consecutive trials of one ``N``, so ``_map`` runs at most one worker per
    batch; at ``N`` above ``_BATCH_POINTS`` each trial is its own job.
    """
    law = law_for(config.objective, config.n, config.beta)
    jobs = []
    for N in config.N_list:
        size = max(1, _BATCH_POINTS // N)
        for first in range(0, config.trials, size):
            count = min(size, config.trials - first)
            jobs.append(
                (config.objective, config.n, config.beta, config.master_seed, N, first, count,
                 law.M, law.A)
            )
    return [record for batch in _map(_run_batch, jobs, threads, len(jobs)) for record in batch]


def ks_distance(ecdf: EmpiricalCDF, law: LimitLaw) -> float:
    """Sup distance between the ECDF and the limit CDF, taken at the jumps."""
    t = ecdf.sorted_values
    m = t.size
    F = np.asarray(weibull_cdf(law, t))
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - F), np.max(F - (i - 1) / m)))


def fit_shape(ecdf: EmpiricalCDF) -> ShapeFit:
    """Least-squares Weibull plot: slope ~ C, intercept ~ ln B.

    Uses plotting positions (i - 1/2)/m restricted to the quantile window
    ``DEFAULT_SHAPE_WINDOW``; below it the counts are noisy, above it
    1 - exp(-B t^C) stops looking like a pure power.

    Raises:
        ValueError: if fewer than 100 usable points fall in the window.
    """
    lo, hi = DEFAULT_SHAPE_WINDOW
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


def tail_prefactor(objective: Objective | str, n: int, beta: float) -> float:
    """Leading small-eps coefficient of P[f >= M - eps]: n! * K_n * I."""
    spec = KernelSpec(objective, n)
    objective, n = spec.objective, spec.n
    return math.factorial(n) * compute_K(n, beta) * analytic_I(objective, n, beta)


def _tail_hits(job) -> tuple[int, int]:
    """Hits and scored tuples in the chunk of ``m`` tuples at tuple ``start``.

    ``job`` is ``(params, objective, n, policy, k, threshold, floor, start,
    m)``.  The chunk's points are the ``n m`` points of ``uniform_chunks``
    at draw ``2 n start`` of stream ``k``, so tuple ``j`` of the chunk is its
    points ``[n j, n j + n)``.  They are drawn once, first to last,
    ``_TAIL_BLOCK`` tuples at a time.  Only the tuples whose ``n`` radius
    uniforms all reach ``floor`` get coordinates and a score: the others
    cannot reach ``threshold`` (``geometry.threshold_radius``).
    ``points_from_uniforms`` is elementwise, so a scored tuple's points are
    the same doubles as without the filter.
    """
    params, objective, n, policy, k, threshold, floor, start, m = job
    hits = scored = 0
    for a, r in uniform_chunks(policy, k, n * m, skip=2 * n * start, size=n * _TAIL_BLOCK):
        if floor > 0.0:
            # A strided minimum and row takes: several times faster than a
            # reshape(-1, n) reduction, and-ed compares or a boolean mask.
            least = np.minimum(r[0::n], r[1::n])
            for j in range(2, n):
                np.minimum(least, r[j::n], out=least)
            keep = np.flatnonzero(least >= floor)
            a = a.reshape(-1, n).take(keep, axis=0).ravel()
            r = r.reshape(-1, n).take(keep, axis=0).ravel()
        pts = points_from_uniforms(params, a, r)
        vals = hull_functional(pts.reshape(-1, n, 2), objective)
        hits += int(np.count_nonzero(vals >= threshold))
        scored += len(vals)
    return hits, scored


def tail_probe(
    objective: Objective | str,
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
    consumed in chunks of ``_TAIL_CHUNK`` tuples, each the
    ``sampler.uniform_chunks`` of its points; the chunk size fixes which
    uniforms make up which tuple.  Only the tuples whose ``n`` radius
    uniforms all reach the epsilon's floor,
    ``radius_uniform_floor(params, threshold_radius(objective, n, M - eps))``,
    are scored, and ``scored`` counts them; the others cannot reach
    ``M - eps``, so the hits are those of scoring every tuple.  The floor
    is 0, and every tuple scored, for ``n != 3`` and wherever ``M - eps``
    is at most the bound at the centre.  Each chunk is one job
    (``_tail_hits``), run by ``_map`` on at most one worker per full chunk
    of tuples, so a small probe runs in the calling process.  Hits are
    integer sums over the jobs, so the result is identical for every worker
    count.
    Guards each epsilon by requiring >= 100 expected hits under the
    analytic prediction; zero-hit grid points are dropped from the fit
    with a warning.

    Raises:
        ValueError: on a bad grid (a non-real or non-finite epsilon too), a guard
        violation, a ``threads``, ``draws_per_epsilon`` or ``seed`` that
        is not an integer, ``threads < 1``, or < 2 nonzero probabilities to fit.
    """
    policy, params, spec = SeedPolicy(seed), BetaParams(beta), KernelSpec(objective, n)
    objective, n, beta = spec.objective, spec.n, params.beta
    eps = tuple(sorted({check_real(e, "every epsilon") for e in epsilon_grid}, reverse=True))
    for e in eps:
        if not math.isfinite(e):
            raise ValueError(f"epsilons must be finite, got {e}")
    if len(eps) < 2:
        raise ValueError("epsilon grid must contain at least 2 distinct values")
    M = extremal_value(objective, n)
    if eps[0] >= M or eps[-1] <= 0.0:
        raise ValueError(f"epsilons must lie in (0, M={M:.6g}), got {eps}")
    draws_per_epsilon = check_integer(draws_per_epsilon, "draws_per_epsilon", least=1)
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

    # A pool takes ~10-15 ms to start: at n = 3, 2 workers on 2 full chunks
    # only break even with 1, so each worker gets at least a full chunk.
    full = len(eps) * draws_per_epsilon // _TAIL_CHUNK

    # One job per chunk of each epsilon's stream.
    jobs = []
    for k, e in enumerate(eps):
        threshold = M - e
        floor = radius_uniform_floor(params, threshold_radius(objective, n, threshold))
        for start in range(0, draws_per_epsilon, _TAIL_CHUNK):
            m = min(_TAIL_CHUNK, draws_per_epsilon - start)
            jobs.append((params, objective, n, policy, k, threshold, floor, start, m))
    hits, scored = [0] * len(eps), [0] * len(eps)
    for job, (count, seen) in zip(jobs, _map(_tail_hits, jobs, threads, full)):
        hits[job[4]] += count
        scored[job[4]] += seen

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
        scored=tuple(scored),
    )


def consistency_check(
    records: list[TrialRecord], law: LimitLaw, delta: float = CONSISTENCY_DELTA
) -> ConsistencyReport:
    """Fraction of trials whose deficiency M - H stayed below ``delta``."""
    if not records:
        raise ValueError("no trial records")
    delta = _check_delta(delta)
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
        "consistency": asdict(consistency),
    }
