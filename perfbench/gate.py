"""Correctness gate: checks on the written output files, outside the timed section.

Every check reads the files a campaign wrote, so a corrupted file trips it.
``error_frac`` is failed checks over checks attempted.
"""

from __future__ import annotations

import json
import math
import platform
from pathlib import Path

import numpy as np
from betapoly import geometry, montecarlo, sampler

PIN_SEED = 42
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
# Oracle spot check: this many leading trials per N, where C(h, n) fits the oracle's guard.
ORACLE_TRIALS = 2
ORACLE_MAX_SUBSETS = 10**6


class Checks:
    """Named pass/fail results; failures keep a one-line detail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def platform_key() -> dict:
    """What the bytes of the outputs depend on besides the seed: numpy's SIMD kernels."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = None
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def _read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: bad header")
    return [line.split(",") for line in lines[1:]]


def check_pins(checks: Checks, workload: str, seed: int, hashes: dict[str, str]) -> bool:
    """Byte-identity with the files pinned at seed 42; False where no pin applies."""
    if seed != PIN_SEED:
        return False
    pins = json.loads(PINS_PATH.read_text())
    if pins["platform"] != platform_key() or workload not in pins["workloads"]:
        return False
    for name, digest in pins["workloads"][workload].items():
        checks.add(f"pin {name}", hashes.get(name) == digest, "sha256 differs from the pin")
    return True


def check_sim(checks: Checks, config, law, out_dir: Path) -> list:
    """Invariants, file agreement and the oracle spot check; returns the trial rows."""
    try:
        rows = [
            (int(N), int(t), float(H), float(T), int(h))
            for N, t, H, T, h, _ in _read_csv(out_dir / "trials.csv", montecarlo.TRIALS_CSV_HEADER)
        ]
        ecdf_rows = _read_csv(out_dir / "ecdf.csv", montecarlo.ECDF_CSV_HEADER)
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        checks.add("read outputs", False, str(exc))
        return []
    expected = [(N, t) for N in config.N_list for t in range(config.trials)]
    checks.add("trial order", [(r[0], r[1]) for r in rows] == expected, "rows not in (N, trial) order")
    for N, t, H, T, h in rows:
        ok = 0.0 <= law.M - H and h >= config.n and T == N**law.A * (law.M - H)
        checks.add(f"invariants N={N} t={t}", ok, f"H={H!r} T={T!r} hull_size={h}")
    checks.add(
        "summary config",
        summary.get("N_list") == list(config.N_list)
        and summary.get("trials_per_N") == config.trials
        and summary.get("master_seed") == config.master_seed
        and [p.get("trials") for p in summary.get("per_N", [])] == [config.trials] * len(config.N_list),
        "summary.json disagrees with the configuration",
    )
    largest = max(config.N_list)
    T_sorted = sorted(r[3] for r in rows if r[0] == largest)
    checks.add(
        "ecdf agrees with trials",
        [float(e[0]) for e in ecdf_rows] == T_sorted,
        "ecdf.csv abscissae are not the sorted T of the largest N",
    )
    _oracle(checks, config, rows)
    return rows


def _oracle(checks: Checks, config, rows) -> None:
    params = sampler.BetaParams(config.beta)
    policy = sampler.SeedPolicy(config.master_seed)
    by_key = {(r[0], r[1]): r for r in rows}
    for N in config.N_list:
        for t in range(min(ORACLE_TRIALS, config.trials)):
            row = by_key.get((N, t))
            pts = sampler.sample_batch(params, N, policy, t)
            hull = sorted(geometry.convex_hull(pts).vertex_indices)
            if math.comb(len(hull), config.n) > ORACLE_MAX_SUBSETS:
                continue
            best = geometry.umax_bruteforce(pts[hull], config.n, config.objective)
            ok = row is not None and row[4] == len(hull) and row[2] == best.value
            checks.add(f"oracle N={N} t={t}", ok, f"file {row} vs brute force {best.value!r}")


def check_tail(checks: Checks, config, out_dir: Path) -> None:
    _, _, _, eps, draws, _ = config
    try:
        rows = _read_csv(out_dir / "tail.csv", montecarlo.TAIL_CSV_HEADER)
        summary = json.loads((out_dir / "tail_summary.json").read_text())
    except (OSError, ValueError) as exc:
        checks.add("read outputs", False, str(exc))
        return
    grid = sorted(set(eps), reverse=True)
    checks.add("eps grid", [float(r[0]) for r in rows] == grid, "tail.csv grid differs")
    for e, d, hits, p, _ in rows:
        d, hits = int(d), int(hits)
        ok = d == draws and 0 <= hits <= d and float(p) == hits / d
        checks.add(f"invariants eps={e}", ok, f"draws={d} hits={hits} p_hat={p}")
    checks.add(
        "summary hits",
        summary.get("hits") == [int(r[2]) for r in rows] and summary.get("draws_per_epsilon") == draws,
        "tail_summary.json disagrees with tail.csv",
    )


def check_replay(checks: Checks, rows, replayed) -> None:
    """The traced single-process replay must reproduce every H and hull size exactly."""
    got = {(N, t): (H, h) for N, t, H, h in replayed}
    for N, t, H, _, h in rows:
        checks.add(f"replay N={N} t={t}", got.get((N, t)) == (H, h), f"file H={H!r} replay {got.get((N, t))}")
    checks.add("replay count", len(got) == len(rows), f"{len(got)} replayed vs {len(rows)} rows")
