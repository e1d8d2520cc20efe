import json
import math

import pytest

from betapoly import montecarlo
from betapoly.cli import dispatch
from betapoly.montecarlo import CONSISTENCY_DELTA
from betapoly.sampler import BetaParams, SeedPolicy, sample_batch, write_points_csv

CONSTANTS_KEYS = {"M", "A", "B", "C", "K_n", "I"}
VERIFY_KEYS = {
    "gradient_residual",
    "det_negG",
    "analytic_det",
    "radial_partials",
    "analytic_partials",
    "A6_pass",
    "A7_pass",
}


def _run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_json_schema_and_values(capsys):
    code, out, _ = _run(
        capsys, ["constants", "--objective", "perimeter", "--n", "3", "--beta", "0", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == CONSTANTS_KEYS
    assert payload["C"] == pytest.approx(4.0)
    assert payload["A"] == pytest.approx(0.75)
    assert payload["M"] == pytest.approx(3.0 * math.sqrt(3.0))
    assert payload["B"] == pytest.approx(payload["K_n"] * payload["I"], rel=1e-12)


def test_constants_human_output(capsys):
    code, out, _ = _run(capsys, ["constants", "--objective", "area", "--n", "4", "--beta", "0.5"])
    assert code == 0
    assert out.splitlines()[0].startswith("M = ")


def test_missing_flag_names_it(capsys):
    code, _, err = _run(capsys, ["constants", "--objective", "perimeter", "--beta", "0"])
    assert code == 1
    assert err.startswith("error:")
    assert "--n" in err


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1
    assert "error:" in err


def test_no_subcommand_exits_1(capsys):
    code, _, err = _run(capsys, [])
    assert code == 1
    assert "subcommand" in err


def test_invalid_objective_exits_1(capsys):
    code, _, err = _run(capsys, ["constants", "--objective", "volume", "--n", "3", "--beta", "0"])
    assert code == 1


def test_an_objective_flag_is_read_by_the_rule_of_a_config_value(tmp_path, capsys):
    # --objective goes through Objective.parse, as a config file's value
    # does: the case and outer blanks of a name do not change a byte.
    outs = []
    for i, name in enumerate(("perimeter", "Perimeter", " AREA ", "area")):
        out_dir = tmp_path / str(i)
        code, out, _ = _run(capsys, [
            "--threads", "1", "simulate", "--objective", name, "--n", "3", "--beta", "0",
            "--N", "40", "--trials", "10", "--seed", "5", "--out-dir", str(out_dir),
        ])
        assert code == 0
        code, out, _ = _run(capsys, ["constants", "--objective", name, "--n", "3", "--beta", "0"])
        assert code == 0
        names = ("trials.csv", "summary.json", "ecdf.csv")
        outs.append([out] + [(out_dir / f).read_bytes() for f in names])
    assert outs[0] == outs[1] and outs[2] == outs[3] and outs[0] != outs[2]
    code, _, err = _run(capsys, ["constants", "--objective", "volume", "--n", "3", "--beta", "0"])
    assert code == 1
    assert err == "error: unknown objective 'volume'; expected 'perimeter' or 'area'\n"
    with pytest.raises(SystemExit):
        dispatch(["constants", "--help"])
    assert "--objective {perimeter,area}" in capsys.readouterr().out


def test_domain_error_exits_1(capsys):
    code, _, err = _run(
        capsys, ["constants", "--objective", "perimeter", "--n", "3", "--beta", "-2", "--json"]
    )
    assert code == 1
    assert "beta" in err


def test_sample_writes_deterministic_csv(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    argv = ["sample", "--beta", "0", "--count", "50", "--seed", "7", "--out", str(out)]
    assert dispatch(argv) == 0
    first = out.read_bytes()
    assert dispatch(argv) == 0
    assert out.read_bytes() == first
    assert first.decode().splitlines()[0] == "x,y"
    capsys.readouterr()


def test_umax_cli_agrees_with_bruteforce(tmp_path, capsys):
    pts = sample_batch(BetaParams(0.0), 10, SeedPolicy(3), 0)
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    code, out, _ = _run(capsys, ["umax", "--in", str(path), "--n", "3", "--objective", "area"])
    assert code == 0
    fast = json.loads(out)
    code, out, _ = _run(
        capsys,
        ["umax", "--in", str(path), "--n", "3", "--objective", "area", "--brute-force"],
    )
    assert code == 0
    slow = json.loads(out)
    assert set(fast) == {"value", "vertex_indices", "vertex_count"}
    assert fast["value"] == pytest.approx(slow["value"], rel=1e-12)
    assert fast["vertex_indices"] == slow["vertex_indices"]


def test_umax_missing_file_is_runtime_error(capsys):
    code, _, err = _run(
        capsys, ["umax", "--in", "/nonexistent/pts.csv", "--n", "3", "--objective", "area"]
    )
    assert code == 2


def test_verify_json_schema(capsys):
    code, out, _ = _run(capsys, ["verify", "--kernel", "perimeter", "--n", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == VERIFY_KEYS
    assert payload["A6_pass"] is True and payload["A7_pass"] is True
    assert payload["gradient_residual"] < 1e-6
    assert payload["det_negG"] == pytest.approx(payload["analytic_det"], rel=1e-4)
    assert len(payload["radial_partials"]) == 4
    assert payload["radial_partials"][0] == pytest.approx(payload["analytic_partials"], abs=1e-5)


def test_verify_step_override(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--kernel", "area", "--n", "3", "--step", "1e-4", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["det_negG"] == pytest.approx(payload["analytic_det"], rel=1e-3)


def test_verify_rejects_a_step_that_is_not_finite(capsys):
    # A step whose square underflows to 0 would divide 0 by 0 in the
    # Hessian and print "det_negG": NaN, which is not JSON.
    cases = [(bad, f"step must be positive and finite, got {bad}") for bad in ("nan", "inf")]
    cases.append(("1e-300", "step**2 underflows to 0 for step 1e-300"))
    for bad, message in cases:
        argv = ["verify", "--kernel", "perimeter", "--n", "3", "--step", bad, "--json"]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert message in err


def test_config_file_supplies_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"constants": {"objective": "perimeter", "n": 3, "beta": 0.0, "as_json": True}}))
    code, out, _ = _run(capsys, ["--config", str(cfg), "constants"])
    assert code == 0
    assert json.loads(out)["C"] == pytest.approx(4.0)
    # explicit flag beats the file: n=4 gives C = 5.5
    code, out, _ = _run(capsys, ["--config", str(cfg), "constants", "--n", "4"])
    assert code == 0
    assert json.loads(out)["C"] == pytest.approx(5.5)


def test_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = _run(capsys, ["--config", str(cfg), "constants", "--objective", "perimeter",
                                 "--n", "3", "--beta", "0"])
    assert code == 1
    assert "config" in err


def test_simulate_cli_files_and_thread_determinism(tmp_path, capsys, monkeypatch):
    outs = []
    # An unset --threads leaves the worker count to montecarlo's default.
    # Batches of all 30 trials of an N (the default), of one trial, and of
    # 12 / 6 trials at N = 40 / 80 (a ragged last batch) write the same bytes.
    runs = [(threads, None) for threads in ("1", "2", "3", None)]
    runs += [(threads, points) for points in (1, 500) for threads in ("1", "2", "3")]
    for i, (threads, points) in enumerate(runs):
        out_dir = tmp_path / str(i)
        argv = ["--threads", threads] if threads else []
        argv += [
            "simulate", "--objective", "perimeter", "--n", "3", "--beta", "0",
            "--N", "40,80", "--trials", "30", "--seed", "5", "--out-dir", str(out_dir),
        ]
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_BATCH_POINTS", points or montecarlo._BATCH_POINTS)
            code, _, err = _run(capsys, argv)
        assert code == 0
        assert f"s of summed trial compute, --threads {threads or 'default'})" in err
        outs.append(out_dir)
    a = outs[0]
    for b in outs[1:]:
        for name in ("trials.csv", "summary.json", "ecdf.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
    lines = (a / "trials.csv").read_text().splitlines()
    assert lines[0] == "N,trial,H,T,hull_size,micros"
    assert len(lines) == 1 + 2 * 30
    summary = json.loads((a / "summary.json").read_text())
    assert summary["consistency"]["N"] == 80
    assert [row["N"] for row in summary["per_N"]] == [40, 80]


def test_tailprobe_cli(tmp_path, capsys):
    outs = []
    for sub in ("tail_a", "tail_b"):
        out_dir = tmp_path / sub
        argv = [
            "tailprobe", "--objective", "perimeter", "--n", "3", "--beta", "0",
            "--eps", "0.4,0.5", "--draws", "200000", "--seed", "9", "--out-dir", str(out_dir),
        ]
        assert dispatch(argv) == 0
        outs.append(out_dir)
    capsys.readouterr()
    a, b = outs
    assert (a / "tail.csv").read_bytes() == (b / "tail.csv").read_bytes()
    assert (a / "tail_summary.json").read_bytes() == (b / "tail_summary.json").read_bytes()
    lines = (a / "tail.csv").read_text().splitlines()
    assert lines[0] == "eps,draws,hits,p_hat,p_pred"
    assert len(lines) == 3
    summary = json.loads((a / "tail_summary.json").read_text())
    assert {"fitted_slope", "predicted_slope", "hits", "epsilon_grid"} <= set(summary)
    assert summary["predicted_slope"] == pytest.approx(4.0)


def test_tailprobe_cli_rejects_an_epsilon_that_is_not_finite(tmp_path, capsys):
    argv = [
        "--threads", "1",
        "tailprobe", "--objective", "perimeter", "--n", "3", "--beta", "0",
        "--eps", "0.4,nan,0.5", "--draws", "300000", "--seed", "1",
        "--out-dir", str(tmp_path / "tail"),
    ]
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert "epsilons must be finite, got nan" in err
    assert not (tmp_path / "tail" / "tail.csv").exists()


def test_tailprobe_cli_thread_determinism(tmp_path, capsys):
    outs = []
    for threads, sub in (("1", "a"), ("2", "b"), (None, "c")):
        out_dir = tmp_path / sub
        argv = ["--threads", threads] if threads else []
        argv += [
            "tailprobe", "--objective", "perimeter", "--n", "3", "--beta", "0",
            "--eps", "0.4,0.5", "--draws", "300007", "--seed", "9", "--out-dir", str(out_dir),
        ]
        code, _, err = _run(capsys, argv)
        assert code == 0
        assert f"s (--threads {threads or 'default'})\n" in err
        outs.append(out_dir)
    a = outs[0]
    for b in outs[1:]:
        assert (a / "tail.csv").read_bytes() == (b / "tail.csv").read_bytes()
        assert (a / "tail_summary.json").read_bytes() == (b / "tail_summary.json").read_bytes()
    assert json.loads((a / "tail_summary.json").read_text())["draws_per_epsilon"] == 300007


def test_tailprobe_cli_logs_the_scored_share_and_keeps_its_files(tmp_path, capsys, monkeypatch):
    # The radius prefilter scores only the tuples that can reach M - eps; it
    # logs their share on stderr and leaves both files as the unfiltered
    # probe writes them.
    def run(sub):
        argv = [
            "--threads", "2",
            "tailprobe", "--objective", "perimeter", "--n", "3", "--beta", "0",
            "--eps", "0.4,0.5", "--draws", "300000", "--seed", "9",
            "--out-dir", str(tmp_path / sub),
        ]
        code, _, err = _run(capsys, argv)
        assert code == 0
        return err

    err = run("filtered")
    assert "eps=0.5: 13.4% of tuples scored" in err
    assert "eps=0.4: 7.4% of tuples scored" in err
    monkeypatch.setattr(montecarlo, "threshold_radius", lambda objective, n, threshold: 0.0)
    err = run("unfiltered")
    assert "eps=0.5: 100.0% of tuples scored" in err
    for name in ("tail.csv", "tail_summary.json"):
        filtered = (tmp_path / "filtered" / name).read_bytes()
        assert filtered == (tmp_path / "unfiltered" / name).read_bytes()
        assert b"scored" not in filtered


def test_threads_validation(capsys):
    code, _, err = _run(capsys, ["--threads", "0", "constants", "--objective", "perimeter",
                                 "--n", "3", "--beta", "0"])
    assert code == 1
    assert "threads" in err


def test_config_can_set_threads(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "threads": 2,
        "simulate": {"objective": "perimeter", "n": 3, "beta": 0.0,
                     "N_list": [30, 60], "trials": 10, "seed": 8,
                     "out_dir": str(tmp_path / "out")},
    }))
    assert dispatch(["--config", str(cfg), "simulate"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "trials.csv").exists()


def test_simulate_delta_flag_controls_consistency_cutoff(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = [
        "simulate", "--objective", "perimeter", "--n", "3", "--beta", "0",
        "--N", "30,60", "--trials", "10", "--seed", "2", "--delta", "0.5",
        "--out-dir", str(out_dir),
    ]
    assert dispatch(argv) == 0
    capsys.readouterr()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["consistency"]["delta"] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "N, delta, message",
    [
        ("250,250", "0.05", "every N must be distinct, got N = 250 more than once"),
        ("30", "inf", "delta must be positive and finite, got inf"),
        ("30", "nan", "delta must be positive and finite, got nan"),
    ],
    ids=["repeated-N", "delta-inf", "delta-nan"],
)
def test_simulate_rejects_a_repeated_N_or_a_delta_that_is_not_finite(
    tmp_path, capsys, N, delta, message
):
    argv = [
        "--threads", "1",
        "simulate", "--objective", "perimeter", "--n", "3", "--beta", "0", "--N", N,
        "--trials", "150", "--seed", "1", "--delta", delta, "--out-dir", str(tmp_path / "out"),
    ]
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert message in err
    assert not (tmp_path / "out").exists()


def _all_flags(tmp_path):
    """Every subcommand flag with a valid value, and the config key it reads.

    Rows are (flag, config key, flag argument or None for a switch, config
    value, required).  Written out by hand so the test does not depend on
    how the CLI declares its flags.
    """
    pts = tmp_path / "pts.csv"
    write_points_csv(pts, sample_batch(BetaParams(0.0), 9, SeedPolicy(3), 0))
    out = str(tmp_path / "out")
    return {
        "sample": [
            ("--beta", "beta", "0.25", 0.25, True),
            ("--count", "count", "15", 15, True),
            ("--seed", "seed", "4", 4, True),
            ("--out", "out", str(tmp_path / "drawn.csv"), str(tmp_path / "drawn.csv"), True),
        ],
        "umax": [
            ("--in", "in_path", str(pts), str(pts), True),
            ("--n", "n", "4", 4, True),
            ("--objective", "objective", "area", "area", True),
            ("--brute-force", "brute_force", None, True, False),
        ],
        "constants": [
            ("--objective", "objective", "area", "area", True),
            ("--n", "n", "5", 5, True),
            ("--beta", "beta", "0.5", 0.5, True),
            ("--json", "as_json", None, True, False),
        ],
        "verify": [
            ("--kernel", "kernel", "perimeter", "perimeter", True),
            ("--n", "n", "4", 4, True),
            ("--step", "step", "0.0001", 1e-4, False),
            ("--json", "as_json", None, True, False),
        ],
        "simulate": [
            ("--objective", "objective", "area", "area", True),
            ("--n", "n", "3", 3, True),
            ("--beta", "beta", "0.5", 0.5, True),
            ("--N", "N_list", "30,60", [30, 60], True),
            ("--trials", "trials", "12", 12, True),
            ("--seed", "seed", "8", 8, True),
            ("--delta", "delta", "0.2", 0.2, False),
            ("--out-dir", "out_dir", out, out, True),
        ],
        "tailprobe": [
            ("--objective", "objective", "perimeter", "perimeter", True),
            ("--n", "n", "3", 3, True),
            ("--beta", "beta", "0", 0.0, True),
            ("--eps", "eps", "0.5,0.6", [0.5, 0.6], True),
            ("--draws", "draws", "80000", 80000, True),
            ("--seed", "seed", "9", 9, True),
            ("--out-dir", "out_dir", out, out, True),
        ],
    }


def _argv(rows):
    argv = []
    for flag, _, arg, _, _ in rows:
        argv += [flag] if arg is None else [flag, arg]
    return argv


SUBCOMMANDS = ["sample", "umax", "constants", "verify", "simulate", "tailprobe"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_required_flag_is_named_when_missing(tmp_path, capsys, command):
    rows = _all_flags(tmp_path)[command]
    for i, (flag, *_, required) in enumerate(rows):
        if not required:
            continue
        code, _, err = _run(capsys, ["--threads", "1", command] + _argv(rows[:i] + rows[i + 1:]))
        assert code == 1
        assert err == f"error: missing required flag {flag}\n"


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_flag_can_come_from_the_config_file(tmp_path, capsys, command):
    rows = _all_flags(tmp_path)[command]
    written = tmp_path / "drawn.csv" if command == "sample" else tmp_path / "out"

    def outputs(argv):
        code, out, _ = _run(capsys, ["--threads", "1"] + argv)
        assert code == 0
        files = sorted(written.iterdir()) if written.is_dir() else [written]
        return out, {f.name: f.read_bytes() for f in files if f.exists()}

    from_flags = outputs([command] + _argv(rows))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({command: {key: value for _, key, _, value, _ in rows}}))
    from_config = outputs(["--config", str(cfg), command])
    assert from_config == from_flags
    assert from_flags[0] or from_flags[1]


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("constants", "objective", 5),
        ("constants", "n", 3.7),
        ("constants", "n", True),
        ("constants", "beta", False),
        ("constants", "as_json", "false"),
        ("umax", "brute_force", 1),
        ("simulate", "N_list", [30, 60.5]),
        ("sample", "out", 5),
        ("tailprobe", "out_dir", ["out"]),
        ("constants", "n", "4"),
        ("constants", "beta", "0.5"),
        ("simulate", "trials", "10"),
        ("simulate", "N_list", [30, "60"]),
        ("tailprobe", "eps", [0.4, "0.5"]),
    ],
)
def test_config_value_of_wrong_type_is_a_bad_value(tmp_path, capsys, command, key, value):
    rows = _all_flags(tmp_path)[command]
    section = {k: v for _, k, _, v, _ in rows}
    section[key] = value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({command: section}))
    flag = next(f for f, k, *_ in rows if k == key)
    code, _, err = _run(capsys, ["--threads", "1", "--config", str(cfg), command])
    assert code == 1
    assert err == f"error: bad value for {flag}: {value!r}\n"


def test_config_threads_must_be_an_integer(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"threads": 1.5}))
    code, _, err = _run(capsys, ["--config", str(cfg), "constants", "--objective", "area",
                                 "--n", "3", "--beta", "0"])
    assert code == 1
    assert err == "error: bad value for --threads: 1.5\n"


def test_config_threads_given_as_a_string_is_a_bad_value(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"threads": "2"}))
    code, _, err = _run(capsys, ["--config", str(cfg), "constants", "--objective", "area",
                                 "--n", "3", "--beta", "0"])
    assert code == 1
    assert err == "error: bad value for --threads: '2'\n"


def test_config_null_is_absent_and_integral_numbers_are_ints(tmp_path, capsys):
    rows = _all_flags(tmp_path)["simulate"]
    section = {k: v for _, k, _, v, _ in rows}
    section.update(delta=None, n=3.0, N_list=[30.0, 60])
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"simulate": section}))
    code, _, _ = _run(capsys, ["--threads", "1", "--config", str(cfg), "simulate"])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["consistency"]["delta"] == CONSISTENCY_DELTA
    assert summary["n"] == 3 and isinstance(summary["n"], int)
    assert summary["N_list"] == [30, 60] and all(isinstance(N, int) for N in summary["N_list"])
