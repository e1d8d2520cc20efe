"""Command-line entry point: sample / umax / constants / verify / simulate / tailprobe.

Results go to stdout (JSON) or to files (CSV/JSON); logs go to stderr.  Every
flag can also come from a JSON config file (``--config``), with explicit
flags taking precedence.  Exit codes: 0 success, 1 validation error, 2
runtime error.  ``--threads`` affects speed only, never results.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import geometry, kernels, limits, montecarlo, sampler


class CliError(Exception):
    """A validation problem: bad flags, bad config, bad input values."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route through CliError instead
    # so every validation failure uniformly exits 1 with a one-line message.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(f"{message} (see '{self.prog} --help')")


_REQUIRED = object()

# subcommand -> (help, rows).  A row is (config key, flag, kind[, default[,
# help]]); the config key is also the argparse dest, and a row without a
# default is required.  Explicit flags beat the config file's section.
_COMMANDS = {
    "sample": ("draw disk points and dump them to CSV", [
        ("beta", "--beta", "float"),
        ("count", "--count", "int"),
        ("seed", "--seed", "int"),
        ("out", "--out", "str"),
    ]),
    "umax": ("exact subset maximum for a point file", [
        ("in_path", "--in", "str"),
        ("n", "--n", "int"),
        ("objective", "--objective", "objective"),
        ("brute_force", "--brute-force", "bool", False),
    ]),
    "constants": ("closed-form limit-law constants", [
        ("objective", "--objective", "objective"),
        ("n", "--n", "int"),
        ("beta", "--beta", "float"),
        ("as_json", "--json", "bool", False),
    ]),
    "verify": ("finite-difference check of a kernel's maximizer data", [
        ("kernel", "--kernel", "objective"),
        ("n", "--n", "int"),
        ("step", "--step", "float", None, "override all FD steps"),
        ("as_json", "--json", "bool", False),
    ]),
    "simulate": ("Monte Carlo of the scaled deficiency", [
        ("objective", "--objective", "objective"),
        ("n", "--n", "int"),
        ("beta", "--beta", "float"),
        ("N_list", "--N", "ints", _REQUIRED, "comma-separated sizes"),
        ("trials", "--trials", "int"),
        ("seed", "--seed", "int"),
        ("delta", "--delta", "float", montecarlo.CONSISTENCY_DELTA,
         f"consistency cutoff (default {montecarlo.CONSISTENCY_DELTA:g})"),
        ("out_dir", "--out-dir", "path"),
    ]),
    "tailprobe": ("direct estimate of the near-maximum tail", [
        ("objective", "--objective", "objective"),
        ("n", "--n", "int"),
        ("beta", "--beta", "float"),
        ("eps", "--eps", "floats", _REQUIRED, "comma-separated epsilons"),
        ("draws", "--draws", "int"),
        ("seed", "--seed", "int"),
        ("out_dir", "--out-dir", "path"),
    ]),
}


def _checked(fn):
    """``fn`` as a cast: a value it rejects with TypeError or ValueError is bad."""

    def cast(raw, flag: str):
        try:
            return fn(raw)
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad value for {flag}: {raw!r}") from exc

    return cast


def _int(value) -> int:
    # JSON has no integer type of its own: 3.0 is an integer, 3.7, true and
    # "3" are not.
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _exactly(cls):
    def check(value):
        if not isinstance(value, cls):
            raise TypeError(f"not a {cls.__name__}")
        return value

    return check


def _num_list(item, text):
    """A list cast: a JSON list's items by ``item``, a comma-separated string's by ``text``."""

    def parse(raw) -> tuple:
        if isinstance(raw, (list, tuple)):
            return tuple(item(x) for x in raw)
        return tuple(text(x.strip()) for x in str(raw).split(",") if x.strip())

    return _checked(parse)


_text = _checked(_exactly(str))
_float = partial(sampler.check_real, name="value")

# kind -> (argparse keywords, cast(value, flag)).  Casts apply to flag and
# config values alike; argparse has already typed the flags, so the type
# checks only bite on config values.
_KINDS = {
    "int": ({"type": int}, _checked(_int)),
    "float": ({"type": float}, _checked(_float)),
    "str": ({"type": str}, _text),
    "path": ({"type": str}, lambda raw, flag: Path(_text(raw, flag))),
    "bool": ({"action": "store_true"}, _checked(_exactly(bool))),
    "objective": (
        {"type": str, "metavar": "{%s}" % ",".join(o.value for o in geometry.Objective)},
        lambda raw, flag: geometry.Objective.parse(_text(raw, flag)),
    ),
    "ints": ({"type": str}, _num_list(_int, int)),
    "floats": ({"type": str}, _num_list(_float, float)),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="betapoly", description=__doc__)
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes for simulate and tailprobe (default: available parallelism)",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, rows) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, flag, kind, *rest in rows:
            help_arg = rest[1] if len(rest) > 1 else None
            p.add_argument(flag, dest=key, default=None, help=help_arg, **_KINDS[kind][0])
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, cfg: dict, command: str, row: tuple):
    """A row's value: the flag, else the config section, else the default.

    A config ``null`` counts as absent.  The default is returned as is; a
    value from a flag or the config file is cast to the row's kind.
    """
    key, flag, kind, *rest = row
    default = rest[0] if rest else _REQUIRED
    value = getattr(args, key)
    if value is None:
        section = cfg.get(command, {})
        if not isinstance(section, dict):
            raise CliError(f"config section {command!r} must be an object")
        value = section.get(key)
    if value is None:
        if default is _REQUIRED:
            raise CliError(f"missing required flag {flag}")
        return default
    return _KINDS[kind][1](value, flag)


def _dump_json(obj: dict, stream=None) -> None:
    stream = sys.stdout if stream is None else stream  # per call: tests swap sys.stdout
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_sample(beta, count, seed, out) -> int:
    points = sampler.sample_batch(sampler.BetaParams(beta), count, sampler.SeedPolicy(seed))
    sampler.write_points_csv(out, points)
    _log(f"wrote {count} points to {out}")
    return 0


def _cmd_umax(in_path, n, objective, brute_force) -> int:
    points = sampler.read_points_csv(in_path)
    fn = geometry.umax_bruteforce if brute_force else geometry.umax
    result = fn(points, n, objective)
    _dump_json(
        {
            "value": result.value,
            "vertex_indices": list(result.vertex_indices),
            "vertex_count": result.vertex_count,
        }
    )
    return 0


def _cmd_constants(objective, n, beta, as_json) -> int:
    payload = limits.law_for(objective, n, beta).constants()
    if as_json:
        _dump_json(payload)
    else:
        for key, val in payload.items():
            print(f"{key} = {val:.12g}")
    return 0


def _cmd_verify(kernel, n, step, as_json) -> int:
    analysis = kernels.analyze_maximizer(kernels.KernelSpec(kernel, n), step)
    payload = {
        "gradient_residual": float(np.max(np.abs(analysis.angular_gradient))),
        "det_negG": analysis.det_negG,
        "analytic_det": kernels.analytic_det_negG(kernel, n),
        "radial_partials": [float(x) for x in analysis.radial_partials],
        "analytic_partials": kernels.analytic_radial_partial(kernel, n),
        "A6_pass": analysis.a6_pass,
        "A7_pass": analysis.a7_pass,
    }
    if as_json:
        _dump_json(payload)
    else:
        for key, val in payload.items():
            print(f"{key} = {val}")
    return 0


def _cmd_simulate(objective, n, beta, N_list, trials, seed, delta, out_dir, threads) -> int:
    config = montecarlo.SimConfig(
        objective, n, beta, N_list, trials, master_seed=seed, consistency_delta=delta
    )
    law = limits.law_for(objective, n, beta)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    records = montecarlo.run_trials(config, threads=threads)
    elapsed = time.perf_counter() - start
    compute = sum(r.wall_time for r in records)
    _log(
        f"simulated {len(records)} trials in {elapsed:.1f}s wall "
        f"({compute:.1f}s of summed trial compute, --threads {threads or 'default'})"
    )

    montecarlo.write_trials_csv(out_dir / "trials.csv", records)
    summary = montecarlo.build_summary(config, records, law)
    with open(out_dir / "summary.json", "w") as fh:
        _dump_json(summary, fh)
    largest = max(N_list)
    ecdf = montecarlo.EmpiricalCDF.from_samples([r.T for r in records if r.N == largest])
    montecarlo.write_ecdf_csv(out_dir / "ecdf.csv", ecdf, law)
    _log(f"wrote trials.csv, summary.json, ecdf.csv to {out_dir}")
    return 0


def _cmd_tailprobe(objective, n, beta, eps, draws, seed, out_dir, threads) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    result = montecarlo.tail_probe(objective, n, beta, eps, draws, seed, threads=threads)
    elapsed = time.perf_counter() - start
    _log(f"tail probe finished in {elapsed:.1f}s (--threads {threads or 'default'})")
    for e, scored in zip(result.epsilon_grid, result.scored):
        _log(f"eps={e:g}: {100.0 * scored / result.draws_per_epsilon:.1f}% of tuples scored")

    prefactor = montecarlo.tail_prefactor(objective, n, beta)
    C = limits.shape_C(n, beta)
    montecarlo.write_tail_csv(out_dir / "tail.csv", result, prefactor, C)
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
    with open(out_dir / "tail_summary.json", "w") as fh:
        _dump_json(summary, fh)
    _log(f"wrote tail.csv, tail_summary.json to {out_dir}")
    return 0


_HANDLERS = {
    "sample": _cmd_sample,
    "umax": _cmd_umax,
    "constants": _cmd_constants,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "tailprobe": _cmd_tailprobe,
}


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        threads = args.threads if args.threads is not None else cfg.get("threads")
        if threads is not None:
            threads = _KINDS["int"][1](threads, "--threads")
            threads = sampler.check_integer(threads, "--threads", least=1)
        if args.command is None:
            raise CliError("no subcommand given; expected one of " + ", ".join(_COMMANDS))
        rows = _COMMANDS[args.command][1]
        opts = {row[0]: _resolve(args, cfg, args.command, row) for row in rows}
        if args.command in ("simulate", "tailprobe"):
            opts["threads"] = threads
        return _HANDLERS[args.command](**opts)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything not a validation problem exits 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
