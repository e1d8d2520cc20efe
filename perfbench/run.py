"""Benchmark of betapoly's Monte Carlo campaigns, run from the root of a checkout.

    python3 perfbench/run.py --workload sim-accept --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the workload's campaign runs back to back, untraced, for
``--seconds``; the end-to-end metrics are its median throughput, the median
set-up time of fresh interpreters and the peak RSS.  With ``--trace 1`` one
campaign runs with spans around each call into the package, sim-* trials are
replayed single-process with a span per call, and per-layer metrics are
reported.  Every run checks its output files (see gate.py).  Human-readable
lines go first; the last line of stdout is one JSON object.  Files go to
``.bench_out/<workload>[-trace]/`` beside a run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
WORKLOAD_NAMES = ("sim-accept", "sim-large", "tail-n3", "tail-n4")
END_TO_END_UNITS = {"throughput_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_package():
    """Import betapoly from this checkout's ``src``, never from anywhere else."""
    init = SRC / "betapoly" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a betapoly checkout")
    sys.path.insert(0, str(SRC))
    import betapoly

    if Path(betapoly.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported betapoly from {betapoly.__file__}, not from {SRC}")
    return betapoly


def _read_proc(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def host_state() -> dict:
    """Load average and steal ticks (read-only), to make a busy host visible."""
    stat = _read_proc("/proc/stat")
    steal = int(stat.split("\n", 1)[0].split()[8]) if stat else None
    load = _read_proc("/proc/loadavg")
    return {"loadavg": load.strip() if load else None, "steal_ticks": steal}


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One fresh interpreter: seconds from its start to a built config, and its import ms."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return t1 - t0, float(line)


def _medians(probes: list[tuple[float, float]]) -> tuple[float, float]:
    return statistics.median(p[0] for p in probes), statistics.median(p[1] for p in probes)


def peak_rss_mb() -> float:
    """Largest ru_maxrss of this process and of its reaped children (pool workers)."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def run_untraced(name: str, spec: dict, seed: int, seconds: float, out_dir: Path, checks) -> dict:
    import campaign
    import gate

    config, law = campaign.build_config(spec, seed)
    files = campaign.output_files(spec)
    units = campaign.work_units(spec)
    walls: list[float] = []
    first = None
    # Set-up probes are spread between campaigns, so their median sees the same
    # host as the throughput does.  One unmeasured probe first fills the bytecode
    # cache, which users pay once.  A probe's RSS (~34 MB) stays below this
    # process's own, so probes never set the peak.
    setup_probe(name, seed)
    probes: list[tuple[float, float]] = []
    start = time.perf_counter()
    # Start a campaign only if one of median length still ends within the budget.
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        t0 = time.perf_counter()
        campaign.run_campaign(spec, config, law, out_dir)
        walls.append(time.perf_counter() - t0)
        hashes = campaign.file_hashes(out_dir, files)
        if first is None:
            first = hashes
        for f in files:
            checks.add(f"repeat {f}", hashes[f] == first[f], "campaign output changed between repeats")
        per_gap = math.ceil(SETUP_PROBES * walls[0] / seconds)
        for _ in range(min(per_gap, SETUP_PROBES - len(probes))):
            probes.append(setup_probe(name, seed))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(name, seed))
    rss = peak_rss_mb()
    rates = [units / w for w in walls]

    if spec["kind"] == "sim":
        gate.check_sim(checks, config, law, out_dir)
    else:
        gate.check_tail(checks, config, out_dir)
    setup_s, import_ms = _medians(probes)
    print(
        f"{name}: {len(rates)} campaigns of {units} {'trials' if spec['kind'] == 'sim' else 'draws'}; "
        f"throughput min/median/max {min(rates):.6g}/{statistics.median(rates):.6g}/{max(rates):.6g} 1/s; "
        f"import {import_ms:.1f} ms"
    )
    metrics = {
        "throughput_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    return {
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "campaign_throughputs": rates,
        "setup_probes_s": [p[0] for p in probes],
    }


def run_traced(name: str, spec: dict, seed: int, out_dir: Path, checks) -> dict:
    import campaign
    import gate
    import spans

    config, law = campaign.build_config(spec, seed)
    files = campaign.output_files(spec)
    tracer = spans.Tracer()
    if spec["kind"] == "sim":
        records = campaign.run_sim(config, law, out_dir, tracer.span)
        rows = gate.check_sim(checks, config, law, out_dir)
        replayed = spans.replay(config, tracer)
        gate.check_replay(checks, rows, replayed)
        trial_cpu_s = sum(r.wall_time for r in records)
        overhead = sum(tracer.durations("montecarlo.trial")) / trial_cpu_s - 1.0
        draws = 0
        what = "traced single-process trial spans vs untraced TrialRecord.wall_time"
    else:
        t0 = time.perf_counter()
        campaign.run_tail(config, out_dir)
        untraced_s = time.perf_counter() - t0
        untraced = campaign.file_hashes(out_dir, files)
        t0 = time.perf_counter()
        with tracer.span("campaign"):
            campaign.run_tail(config, out_dir, tracer.span)
        overhead = (time.perf_counter() - t0) / untraced_s - 1.0
        traced = campaign.file_hashes(out_dir, files)
        for f in files:
            checks.add(f"traced {f}", traced[f] == untraced[f], "traced run changed the output")
        gate.check_tail(checks, config, out_dir)
        replayed, trial_cpu_s, draws = [], 0.0, campaign.work_units(spec)
        what = "traced campaign wall vs untraced campaign wall"
    setup_probe(name, seed)
    _, import_ms = _medians([setup_probe(name, seed) for _ in range(SETUP_PROBES)])
    tracer.write(out_dir / "trace.json")

    print(f"{name} trace: {len(tracer.spans)} spans in {out_dir / 'trace.json'}")
    print(f"  tracing overhead {overhead:+.2%} ({what})")
    print(f"  {'span':34} {'count':>6} {'total_ms':>12} {'self_ms':>12}")
    for span_name, (count, total, self_t) in tracer.self_times().items():
        print(f"  {span_name:34} {count:6d} {total * 1e3:12.3f} {self_t * 1e3:12.3f}")
    metrics = spans.layer_metrics(tracer, replayed, trial_cpu_s, draws, import_ms, overhead)
    return {"metrics": metrics, "units": spans.per_layer_units()}


def run_one(args) -> int:
    load_package()
    import campaign
    import gate
    import numpy

    spec = campaign.workload_spec(args.workload, tiny=args.tiny)
    out_dir = OUT / (args.workload + ("-trace" if args.trace else ""))
    out_dir.mkdir(parents=True, exist_ok=True)
    before = host_state()
    checks = gate.Checks()
    if args.trace:
        res = run_traced(args.workload, spec, args.seed, out_dir, checks)
    else:
        res = run_untraced(args.workload, spec, args.seed, args.seconds, out_dir, checks)
    after = host_state()
    hashes = campaign.file_hashes(out_dir, campaign.output_files(spec))
    # Pins hold for the default sizes only.
    pinned = not args.tiny and gate.check_pins(checks, args.workload, args.seed, hashes)

    for f in checks.failures:
        print(f"CHECK FAILED {f}", file=sys.stderr)
    error_frac = checks.failed / checks.attempted
    metrics = {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": sys.argv,
        "trace": args.trace,
        "tiny": args.tiny,
        "spec": spec,
        "betapoly": sys.modules["betapoly"].__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": gate.platform_key(),
        "host_start": before,
        "host_end": after,
        "output_sha256": hashes,
        "output_pins_checked": pinned,
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures},
        "metrics": metrics,
    }
    for key in ("campaign_throughputs", "setup_probes_s"):
        if key in res:
            record[key] = res[key]
    with open(out_dir / "run_record.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    steal = (
        after["steal_ticks"] - before["steal_ticks"]
        if before["steal_ticks"] is not None and after["steal_ticks"] is not None
        else None
    )
    print(f"host: loadavg {before['loadavg']} -> {after['loadavg']}; steal ticks during run {steal}; "
          f"seed-{gate.PIN_SEED} output pins {'checked' if pinned else 'not applicable'}")
    for k, v in metrics.items():
        print(f"{k} = {v['value']!r} {v['unit']}")
    print(f"error_frac = {error_frac!r} ratio ({checks.failed}/{checks.attempted} checks failed)")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(f"\n{'workload':12} {'metric':40} {'value':>16} unit")
    for name, res in results.items():
        for k, v in res["metrics"].items():
            print(f"{name:12} {k:40} {v['value']:16.6g} {v['unit']}")
        print(f"{name:12} {'error_frac':40} {res['failed'] / res['attempted']:16.6g} ratio")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check sizes: seconds per workload")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
