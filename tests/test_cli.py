"""End-to-end tests for the command-line interface."""

import json
import os

import pytest

from thinlab import cli, engine, experiments
from thinlab.checks import CheckResult
from thinlab.errors import ConfigurationError, WorkerError


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_args_valid_simulate():
    config = cli.parse_args(
        ["simulate", "-n", "1000000", "--rho", "1", "--strategy", "threshold:auto",
         "--trials", "100", "--seed", "42"]
    )
    assert config.subcommand == "simulate"
    assert config.params["n"] == 10**6
    assert config.params["trials"] == 100
    assert config.params["t"] is None


def test_parse_args_rejects_conflicts_and_unknowns():
    with pytest.raises(ConfigurationError):
        cli.parse_args(["simulate", "-n", "100", "--rho", "1", "-t", "50"])
    with pytest.raises(ConfigurationError):
        cli.parse_args(["simulate", "-n", "100", "--bogus", "1"])
    with pytest.raises(ConfigurationError):
        cli.parse_args(["simulate", "--rho", "1"])
    with pytest.raises(ConfigurationError):
        cli.parse_args(["bounds", "-n", "100"])  # missing --name


def test_simulate_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "-n", "50", "--trials", "3", "--seed", "5", "--no-meta"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "trial,seed,maxload,rejections"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[2].isdigit() and first[3].isdigit()


def test_meta_header_line(capsys):
    code, out, _ = run_cli(capsys, ["simulate", "-n", "50", "--trials", "2"])
    assert code == 0
    assert out.startswith("# thinlab ")
    assert out.split("\n")[1] == "trial,seed,maxload,rejections"


def test_simulate_json_mirrors_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "-n", "50", "--trials", "120", "--seed", "5",
         "--format", "json", "--no-meta", "--level", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 50 and payload["trials"] == 120
    assert len(payload["per_trial_maxload"]) == 120
    assert payload["quantiles"]["p50"] == payload["median_maxload"]
    tail = payload["tail"]
    assert tail["level"] == 2
    assert tail["successes"] == sum(1 for m in payload["per_trial_maxload"] if m > 2)
    assert 0.0 <= tail["wilson_low"] <= tail["p_hat"] <= tail["wilson_high"] <= 1.0


def test_simulate_bad_strategy_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["simulate", "-n", "50", "--strategy", "wat"])
    assert code == 1
    assert "wat" in err


def test_worker_invariance_byte_identical(tmp_path, capsys):
    argv = ["simulate", "-n", "200", "--trials", "20", "--seed", "11", "--no-meta"]
    paths = []
    for workers, label in ((1, "one"), (4, "four")):
        out_path = tmp_path / f"{label}.csv"
        code, _, _ = run_cli(capsys, argv + ["--workers", str(workers), "--out", str(out_path)])
        assert code == 0
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scale_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        ["scale", "--grid", "100,200", "--trials", "4", "--seed", "3", "--no-meta"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,target,median_maxload,ratio,trials"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "100"
    assert lines[2].split(",")[0] == "200"


def test_scale_floats_use_six_significant_digits(capsys):
    code, out, _ = run_cli(
        capsys,
        ["scale", "--grid", "1000", "--trials", "2", "--seed", "3", "--no-meta"],
    )
    assert code == 0
    target_cell = out.strip().split("\n")[1].split(",")[1]
    assert target_cell == "5.34734"


def test_bounds_single_point_json(capsys):
    code, out, _ = run_cli(
        capsys, ["bounds", "--name", "prop41", "-n", "1000000", "--eta", "4", "--no-meta"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "prop41"
    assert payload["value"] == pytest.approx(0.0516269, rel=1e-4)
    assert "exponent" in payload["details"]


def test_bounds_grid_mode_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bounds", "--name", "lemma22", "--theta", "0.5", "-a", "2,3",
         "--set-size", "100,200,400", "--no-meta"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,theta,a,set_size,value,clamped"
    assert len(lines) == 1 + 2 * 3


def test_float_flags_are_range_checked_by_their_evaluators(capsys):
    # Lemmas 2.2 and 2.3 are defined at theta = 0 and at an empty subset.
    for flags in (["--theta", "0", "--set-size", "5"], ["--theta", "0.5", "--set-size", "0"]):
        code, out, _ = run_cli(capsys, ["bounds", "--name", "lemma22", "-a", "2", *flags])
        assert code == 0
        assert json.loads(out)["value"] == 2.0
    code, _, err = run_cli(capsys, ["bounds", "--name", "prop41", "-n", "100", "--eta", "0"])
    assert (code, "eta must be positive" in err) == (1, True)
    code, _, err = run_cli(capsys, ["diagnose", "-n", "100", "--epsilon", "0"])
    assert (code, "epsilon must lie in (0, 2)" in err) == (1, True)


def test_bounds_missing_params_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["bounds", "--name", "prop41", "-n", "100"])
    assert code == 1
    assert "eta" in err


def test_oracle_pmf_formats(capsys):
    code, out, _ = run_cli(
        capsys,
        ["oracle", "-n", "3", "-t", "3", "--strategy", "threshold:1", "--no-meta"],
    )
    assert code == 0
    payload = json.loads(out)
    entries = {row["max_load"]: row["exact"] for row in payload["pmf"]}
    assert entries == {1: "38/81", 2: "14/27", 3: "1/81"}

    code, out, _ = run_cli(
        capsys,
        ["oracle", "-n", "3", "-t", "3", "--strategy", "threshold:1",
         "--format", "csv", "--no-meta"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "max_load,probability,exact"
    assert lines[1].endswith("38/81")


def test_oracle_requires_n_and_t(capsys):
    code, _, err = run_cli(capsys, ["oracle", "-n", "3"])
    assert code == 1
    assert "-t" in err


def test_oracle_check_instance(capsys):
    code, out, _ = run_cli(
        capsys, ["oracle", "--check", "-n", "2", "-t", "2", "--no-meta"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert all(row["passed"] for row in payload["checks"])


def test_diagnose_outputs(capsys):
    code, out, _ = run_cli(
        capsys,
        ["diagnose", "-n", "100", "--rho", "1", "--epsilon", "1",
         "--strategy", "one-choice", "--seed", "21", "--no-meta"],
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["ell"], payload["s"], payload["w"]) == (2, 2, 25)
    assert len(payload["stages"]) == 2
    assert payload["rejections"]["total"] == 0

    code, out, _ = run_cli(
        capsys,
        ["diagnose", "-n", "100", "--rho", "1", "--epsilon", "1",
         "--strategy", "one-choice", "--seed", "21", "--format", "csv", "--no-meta"],
    )
    lines = out.strip().split("\n")
    assert lines[0] == "k,rich_bins,count_below_zeta,load_below_target"
    assert len(lines) == 3


def _no_run(*args, **kwargs):
    raise AssertionError("diagnose ran a trace it should have refused")


def test_diagnose_refuses_a_trace_beyond_the_memory_budget(capsys, monkeypatch):
    # engine.run refuses it before anything is allocated.
    for path in ("_columns", "_run_reference"):
        monkeypatch.setattr(engine, path, _no_run)
    code, out, err = run_cli(
        capsys, ["diagnose", "-n", "1000000000", "--rho", "1", "--no-meta"])
    assert code == 1
    assert out == ""
    assert err.startswith("thinlab: error: a trace of 1000000000 balls")


def test_diagnose_checks_its_parameters_before_it_draws(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", _no_run)
    code, out, err = run_cli(capsys, ["diagnose", "-n", "1000000", "--epsilon", "0"])
    assert code == 1
    assert out == ""
    assert err == "thinlab: error: epsilon must lie in (0, 2), got 0.0\n"


def test_check_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, ["check", "--suite", "engine", "--no-meta"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,passed,detail"
    assert all(",true," in line for line in lines[1:])


def test_check_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_suite", lambda suite: [CheckResult("broken", False, "boom")]
    )
    code, out, _ = run_cli(capsys, ["check", "--no-meta"])
    assert code == 2
    assert "broken,false,boom" in out


def test_config_file_merge_and_precedence(tmp_path, capsys):
    config_path = tmp_path / "campaign.json"
    config_path.write_text(
        json.dumps({"n": 60, "trials": 3, "seed": 9, "strategy": "one-choice"})
    )
    code, base_out, _ = run_cli(
        capsys, ["simulate", "--config", str(config_path), "--no-meta"]
    )
    assert code == 0
    assert len(base_out.strip().split("\n")) == 4

    code, out, _ = run_cli(
        capsys,
        ["simulate", "--config", str(config_path), "--trials", "5", "--no-meta"],
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 6

    config_path.write_text(json.dumps({"n": 60, "frobnicate": 1}))
    code, _, err = run_cli(capsys, ["simulate", "--config", str(config_path)])
    assert code == 1
    assert "frobnicate" in err


@pytest.mark.parametrize(
    "bad", [{"n": 1000.7}, {"trials": 2.9}, {"seed": 3.2}, {"n": True}, {"seed": [3]}]
)
def test_config_file_integers_are_not_truncated(tmp_path, capsys, bad):
    # A config file's integers follow the library's integer rule: a float,
    # bool or list is refused, where int() would have truncated it.
    config_path = tmp_path / "campaign.json"
    config_path.write_text(json.dumps({"n": 1000, "trials": 2, "seed": 3, **bad}))
    code, out, err = run_cli(capsys, ["simulate", "--config", str(config_path)])
    assert code == 1 and out == ""
    assert "must be an integer" in err
    # Flag text is still parsed as an integer.
    assert cli.parse_args(["simulate", "-n", " 1000 ", "--seed", "3"]).params["n"] == 1000


def test_config_file_rho_t_conflict(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"n": 60, "rho": "1", "t": 30}))
    code, _, err = run_cli(capsys, ["simulate", "--config", str(config_path)])
    assert code == 1
    assert "mutually exclusive" in err
    # A flag overriding one side of the pair resolves the conflict.
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--config", str(config_path), "-t", "30", "--trials", "2", "--no-meta"],
    )
    assert code == 0


def test_io_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        ["simulate", "-n", "50", "--trials", "2", "--out", "/nonexistent/x.csv"],
    )
    assert code == 3
    code, _, err = run_cli(capsys, ["simulate", "--config", "/nonexistent/c.json"])
    assert code == 3


def _die(*args):
    os._exit(1)


def test_dead_worker_is_a_thinlab_error(capsys, monkeypatch):
    # Forked workers inherit the patch and die on their first chunk of trials.
    monkeypatch.setattr(experiments, "_run_chunk", _die)
    with pytest.raises(WorkerError):
        experiments.run_trials(
            experiments.ExperimentConfig(n=50, strategy="one-choice", trials=4,
                                         base_seed=1, rho=1),
            workers=2,
        )
    code, out, err = run_cli(
        capsys, ["simulate", "-n", "50", "--trials", "4", "--workers", "2", "--no-meta"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("thinlab: error: a worker process died")


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 1
    code, _, err = run_cli(capsys, [])
    assert code == 1


def test_env_workers_default(tmp_path, capsys, monkeypatch):
    argv = ["simulate", "-n", "100", "--trials", "8", "--seed", "2", "--no-meta"]
    out_env = tmp_path / "env.csv"
    monkeypatch.setenv("THINLAB_WORKERS", "3")
    assert run_cli(capsys, argv + ["--out", str(out_env)])[0] == 0
    monkeypatch.delenv("THINLAB_WORKERS")
    out_plain = tmp_path / "plain.csv"
    assert run_cli(capsys, argv + ["--out", str(out_plain)])[0] == 0
    assert out_env.read_bytes() == out_plain.read_bytes()


@pytest.mark.parametrize(
    "strategy, n", [("threshold:1", 3), ("one-choice", 40_000), ("two-choices", 30)])
def test_simulate_csv_bytes_do_not_depend_on_workers(tmp_path, capsys, strategy, n):
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"{workers}.csv"
        argv = ["simulate", "-n", str(n), "--rho", "1", "--strategy", strategy,
                "--trials", "25", "--seed", "4", "--workers", str(workers),
                "--format", "csv", "--no-meta", "--out", str(out)]
        assert run_cli(capsys, argv)[0] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") > 25


def test_every_subcommand_honors_json_format(capsys, tmp_path):
    invocations = [
        ["simulate", "-n", "40", "--trials", "2"],
        ["scale", "--grid", "50", "--trials", "2"],
        ["bounds", "--name", "threshold_L", "-n", "100"],
        ["oracle", "-n", "2", "-t", "2"],
        ["diagnose", "-n", "100", "--rho", "1", "--epsilon", "1"],
        ["check", "--suite", "bounds"],
    ]
    for argv in invocations:
        code, out, _ = run_cli(capsys, argv + ["--format", "json", "--no-meta"])
        assert code == 0, argv
        json.loads(out)
        code, out, _ = run_cli(capsys, argv + ["--format", "csv", "--no-meta"])
        assert code == 0, argv
        assert "," in out.split("\n")[0], argv
