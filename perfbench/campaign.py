"""Workload table and the timed campaign, made of the calls ``betapoly.cli`` makes.

``simulate`` runs ``run_trials -> write_trials_csv -> build_summary ->
summary.json -> write_ecdf_csv``; ``tailprobe`` runs ``tail_probe ->
write_tail_csv -> tail_summary.json``.  The files are written exactly as the
CLI writes them, so their bytes can be pinned and compared with the CLI's.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from pathlib import Path

from betapoly import geometry, limits, montecarlo

# sim-* run the process pool at the width of the 2-core reference host.
THREADS = 2

WORKLOADS = {
    "sim-accept": dict(
        kind="sim", objective="perimeter", n=3, beta=0.0, N_list=(250, 1000, 4000), trials=300
    ),
    "sim-large": dict(kind="sim", objective="area", n=3, beta=0.0, N_list=(1_000_000,), trials=8),
    "tail-n3": dict(
        kind="tail", objective="perimeter", n=3, beta=0.0, eps=(0.2, 0.3, 0.4, 0.5), draws=2_400_000
    ),
    # ~1 s per campaign, so a run's median rests on ~25 campaigns; 6400 draws
    # still pass tail_probe's >= 100-expected-hits guard at eps=0.9.
    "tail-n4": dict(kind="tail", objective="area", n=4, beta=0.0, eps=(0.9, 1.0, 1.1), draws=6_400),
}

# Sizes for the self-check: every code path, a fraction of a second each.
TINY = {
    "sim-accept": dict(trials=6),
    "sim-large": dict(trials=2),
    "tail-n3": dict(eps=(0.5, 0.6), draws=60_000),
    "tail-n4": dict(eps=(1.1, 1.2), draws=2_400),
}

SIM_FILES = ("trials.csv", "summary.json", "ecdf.csv")
TAIL_FILES = ("tail.csv", "tail_summary.json")


def workload_spec(name: str, tiny: bool = False) -> dict:
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(TINY[name])
    return spec


def output_files(spec: dict) -> tuple[str, ...]:
    return SIM_FILES if spec["kind"] == "sim" else TAIL_FILES


def work_units(spec: dict) -> int:
    """Trials for sim-*, n-point tuple draws for tail-*."""
    if spec["kind"] == "sim":
        return len(spec["N_list"]) * spec["trials"]
    return len(spec["eps"]) * spec["draws"]


def build_config(spec: dict, seed: int):
    """What the CLI builds before its first timed call (part of set-up)."""
    objective = geometry.Objective.parse(spec["objective"])
    if spec["kind"] == "sim":
        config = montecarlo.SimConfig(
            objective=objective,
            n=spec["n"],
            beta=spec["beta"],
            N_list=tuple(spec["N_list"]),
            trials=spec["trials"],
            master_seed=seed,
        )
        return config, limits.law_for(objective, spec["n"], spec["beta"])
    return (objective, spec["n"], spec["beta"], tuple(spec["eps"]), spec["draws"], seed), None


def _dump_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_sim(config, law, out_dir: Path, span=None) -> list:
    """One ``simulate`` campaign; returns the trial records."""
    span = span or _no_span
    with span("montecarlo.run_trials"):
        records = montecarlo.run_trials(config, threads=THREADS)
    with span("montecarlo.write_trials_csv"):
        montecarlo.write_trials_csv(out_dir / "trials.csv", records)
    with span("montecarlo.build_summary"):
        summary = montecarlo.build_summary(config, records, law)
    with span("montecarlo.write_summary_json"):
        _dump_json(out_dir / "summary.json", summary)
    with span("montecarlo.write_ecdf_csv"):
        largest = max(config.N_list)
        ecdf = montecarlo.EmpiricalCDF.from_samples([r.T for r in records if r.N == largest])
        montecarlo.write_ecdf_csv(out_dir / "ecdf.csv", ecdf, law)
    return records


def run_tail(config, out_dir: Path, span=None):
    """One ``tailprobe`` campaign; returns the TailProbeResult."""
    span = span or _no_span
    objective, n, beta, eps, draws, seed = config
    with span("montecarlo.tail_probe"):
        result = montecarlo.tail_probe(objective, n, beta, eps, draws, seed)
    with span("montecarlo.tail_summary"):
        prefactor = montecarlo.tail_prefactor(objective, n, beta)
        C = limits.shape_C(n, beta)
        summary = {
            "objective": objective.value,
            "n": n,
            "beta": beta,
            "draws_per_epsilon": result.draws_per_epsilon,
            "epsilon_grid": list(result.epsilon_grid),
            "hits": list(result.hits),
            "hit_probabilities": list(result.hit_probabilities),
            "fitted_slope": result.fitted_slope,
            "slope_stderr": result.slope_stderr,
            "fitted_log_prefactor": result.fitted_log_prefactor,
            "log_prefactor_stderr": result.log_prefactor_stderr,
            "predicted_slope": C,
            "predicted_log_prefactor": math.log(prefactor),
        }
    with span("montecarlo.write_tail_csv"):
        montecarlo.write_tail_csv(out_dir / "tail.csv", result, prefactor, C)
    with span("montecarlo.write_summary_json"):
        _dump_json(out_dir / "tail_summary.json", summary)
    return result


def run_campaign(spec: dict, config, law, out_dir: Path, span=None):
    if spec["kind"] == "sim":
        return run_sim(config, law, out_dir, span)
    return run_tail(config, out_dir, span)


def cli_argv(spec: dict, seed: int, out_dir: Path) -> list[str]:
    """The ``betapoly`` command line that produces the same files."""
    argv = ["--threads", str(THREADS)] if spec["kind"] == "sim" else []
    argv += ["simulate" if spec["kind"] == "sim" else "tailprobe"]
    argv += ["--objective", spec["objective"], "--n", str(spec["n"]), "--beta", str(spec["beta"])]
    if spec["kind"] == "sim":
        argv += ["--N", ",".join(map(str, spec["N_list"])), "--trials", str(spec["trials"])]
    else:
        argv += ["--eps", ",".join(map(repr, spec["eps"])), "--draws", str(spec["draws"])]
    return argv + ["--seed", str(seed), "--out-dir", str(out_dir)]


def file_hashes(out_dir: Path, names) -> dict[str, str]:
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in names}


def _no_span(name: str):
    return contextlib.nullcontext()
