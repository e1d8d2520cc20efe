"""Spans around calls into betapoly's public functions, and the per-layer metrics.

Spans are recorded from the benchmark's side of each call and kept in memory;
``write`` dumps them as JSON when the traced run ends.  A span's self time is
its duration minus the durations of its children (spans nest strictly: the
traced code is single-threaded).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from betapoly import geometry, sampler

from campaign import THREADS, WORKLOADS

# One set of per-N names covers every sim-* workload; a workload reports 0
# for the sizes and layers it does not run.
LAYER_NS = tuple(sorted({N for w in WORKLOADS.values() if w["kind"] == "sim" for N in w["N_list"]}))
TRIAL_LAYERS = ("sampler.sample_batch", "geometry.convex_hull", "geometry.max_kgon", "montecarlo.trial")
PERCENTILES = (50, 90)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for N in LAYER_NS:
        for layer in TRIAL_LAYERS:
            for p in PERCENTILES:
                units[f"{layer}.p{p}_ms.N{N}"] = "ms"
        units[f"geometry.hull_size.mean.N{N}"] = "count"
    units.update(
        {
            "montecarlo.trial_cpu_s": "s",
            "montecarlo.parallel_eff": "ratio",
            "montecarlo.summary_ms": "ms",
            "montecarlo.write_ms": "ms",
            "montecarlo.tail_probe.us_per_draw": "us",
            "cli.import_ms": "ms",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


class Tracer:
    """In-memory spans: name, start, end, parent span index, trial id (N, trial_index)."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trial: tuple[int, int] | None = None):
        rec = {
            "name": name,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "trial": trial,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total seconds, self seconds)."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            dur = s["end"] - s["start"]
            c = out.setdefault(s["name"], [0, 0.0, 0.0])
            c[0] += 1
            c[1] += dur
            c[2] += dur - child_time[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter seconds from tracer start", "spans": self.spans}, fh)
            fh.write("\n")


def replay(config, tracer: Tracer) -> list[tuple[int, int, float, int]]:
    """Re-run every trial single-process as ``_run_one`` does, one span per call."""
    params = sampler.BetaParams(config.beta)
    policy = sampler.SeedPolicy(config.master_seed)
    out = []
    for N in config.N_list:
        for t in range(config.trials):
            trial = (N, t)
            with tracer.span("montecarlo.trial", trial):
                with tracer.span("sampler.sample_batch", trial):
                    pts = sampler.sample_batch(params, N, policy, t)
                with tracer.span("geometry.convex_hull", trial):
                    hull = geometry.convex_hull(pts)
                with tracer.span("geometry.max_kgon", trial):
                    res = geometry.max_kgon(hull, pts, config.n, config.objective)
            out.append((N, t, res.value, len(hull.vertex_indices)))
    return out


def layer_metrics(
    tracer: Tracer,
    replayed: list,
    trial_cpu_s: float,
    draws: int,
    import_ms: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Per-layer values for every name in ``per_layer_units``; 0 where a layer did not run."""
    m = dict.fromkeys(per_layer_units(), 0.0)
    for layer in TRIAL_LAYERS:
        by_n = defaultdict(list)
        for s in tracer.spans:
            if s["name"] == layer:
                by_n[s["trial"][0]].append((s["end"] - s["start"]) * 1e3)
        for N, ms in by_n.items():
            for p, v in zip(PERCENTILES, np.percentile(ms, PERCENTILES)):
                m[f"{layer}.p{p}_ms.N{N}"] = float(v)
    hulls = defaultdict(list)
    for N, _, _, h in replayed:
        hulls[N].append(h)
    for N, hs in hulls.items():
        m[f"geometry.hull_size.mean.N{N}"] = float(np.mean(hs))

    def total(*names: str) -> float:
        return sum(sum(tracer.durations(n)) for n in names)

    run_wall = total("montecarlo.run_trials")
    m["montecarlo.trial_cpu_s"] = trial_cpu_s
    m["montecarlo.parallel_eff"] = trial_cpu_s / (run_wall * THREADS) if run_wall else 0.0
    m["montecarlo.summary_ms"] = 1e3 * total(
        "montecarlo.build_summary", "montecarlo.write_ecdf_csv", "montecarlo.tail_summary"
    )
    m["montecarlo.write_ms"] = 1e3 * total(
        "montecarlo.write_trials_csv", "montecarlo.write_tail_csv", "montecarlo.write_summary_json"
    )
    if draws:
        m["montecarlo.tail_probe.us_per_draw"] = 1e6 * total("montecarlo.tail_probe") / draws
    m["cli.import_ms"] = import_ms
    m["trace.overhead_frac"] = overhead_frac
    return m
