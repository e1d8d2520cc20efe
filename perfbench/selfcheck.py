"""Self-check of the benchmark at tiny sizes; run from the root of a checkout.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced through ``run.py --workload all
--tiny``, and checks that:

* each result line has exactly the keys correct, attempted, failed and
  metrics, passes its gate, and reports every metric named in
  BENCHMARK.json with its unit;
* the campaign files equal, byte for byte, what the ``betapoly`` CLI writes;
* the gate trips (error_frac > 0) on corrupted copies of the outputs;
* without the package sources, run.py fails without printing a result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SEED = 7

problems: list[str] = []


def require(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run_all(trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
            "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    require(proc.returncode == 0, f"run.py --workload all --trace {trace} exits 0")
    return json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}


def check_results(results: dict, expected: dict[str, str], trace: int) -> None:
    for name, res in results.items():
        require(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{name} trace {trace}: result keys")
        require(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                f"{name} trace {trace}: gate passes ({res['failed']}/{res['attempted']} failed)")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        require(got == expected, f"{name} trace {trace}: every metric with its unit")
        values = [v["value"] for v in res["metrics"].values()]
        require(all(isinstance(v, (int, float)) for v in values), f"{name} trace {trace}: numeric values")


def check_cli_bytes(name: str) -> None:
    import campaign
    from betapoly import cli

    spec = campaign.workload_spec(name, tiny=True)
    cli_dir = OUT / "selfcheck-cli" / name
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(campaign.cli_argv(spec, SEED, cli_dir))
    files = campaign.output_files(spec)
    same = rc == 0 and campaign.file_hashes(cli_dir, files) == campaign.file_hashes(OUT / name, files)
    require(same, f"{name}: benchmark files equal the CLI's")


def check_gate_trips(name: str) -> None:
    import campaign
    import gate

    spec = campaign.workload_spec(name, tiny=True)
    config, law = campaign.build_config(spec, SEED)
    bad = OUT / "selfcheck-corrupt" / name
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(OUT / name, bad)
    checks = gate.Checks()
    if spec["kind"] == "sim":
        path = bad / "trials.csv"
        lines = path.read_text().splitlines()
        N, t, H, *rest = lines[1].split(",")
        lines[1] = ",".join([N, t, repr(float(H) * (1 - 1e-12)), *rest])
        path.write_text("\n".join(lines) + "\n")
        gate.check_sim(checks, config, law, bad)
    else:
        path = bad / "tail.csv"
        lines = path.read_text().splitlines()
        e, d, hits, *rest = lines[1].split(",")
        lines[1] = ",".join([e, d, str(int(hits) + 1), *rest])
        path.write_text("\n".join(lines) + "\n")
        gate.check_tail(checks, config, bad)
    require(checks.failed / checks.attempted > 0, f"{name}: gate trips on a corrupted copy "
            f"(error_frac {checks.failed}/{checks.attempted})")


def check_bare_dir() -> None:
    bare = OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "sim-accept",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    require(proc.returncode != 0 and not proc.stdout.strip(), "without src/, run.py fails and prints no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check_results(run_all(0), end_to_end, 0)
    check_results(run_all(1), per_layer, 1)

    sys.path.insert(0, str(ROOT / "src"))
    for name in ("sim-accept", "sim-large", "tail-n3", "tail-n4"):
        check_cli_bytes(name)
        check_gate_trips(name)
    check_bare_dir()
    print(f"self-check: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
