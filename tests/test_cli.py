"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
from fractions import Fraction

import pytest

from thinlab import bounds, cli, cli_params, engine, experiments
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


def test_simulate_checks_its_tail_request_before_it_runs(capsys, monkeypatch):
    def no_campaign(*args, **kwargs):
        raise AssertionError("simulate ran a campaign it should have refused")

    monkeypatch.setattr(cli, "run_trials", no_campaign)
    code, out, err = run_cli(
        capsys, ["simulate", "-n", "1000000", "--trials", "20", "--level", "5"])
    assert code == 1
    assert out == ""
    assert err == "thinlab: error: tail estimation needs at least 100 trials, got 20\n"


def test_simulate_bad_strategy_is_usage_error(capsys):
    for strategy in ("wat", "threshold:2,k=2,k=3"):
        code, _, err = run_cli(capsys, ["simulate", "-n", "50", "--strategy", strategy])
        assert code == 1
        assert f"unparsable strategy {strategy!r}" in err


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


def test_real_flags_read_fraction_text_exactly(capsys):
    # As --rho does: "1/3" is one third, so (2 - 1/3) * 3 = 5 stages at
    # n = 10**6, where the float 1/3 would give ceil(5.000...1) = 6.
    for n, epsilon in ((1000, "1/2"), (10**6, "1/3")):
        argv = ["bounds", "--name", "stage_params", "-n", str(n), "--rho", "1/2",
                "--epsilon", epsilon, "--no-meta"]
        code, out, _ = run_cli(capsys, argv)
        params = bounds.stage_params(n, "1/2", epsilon)
        data = json.loads(out)
        assert code == 0
        assert data["inputs"]["epsilon"] == epsilon
        assert data["value"] == pytest.approx(params.zeta, rel=1e-5)
        assert data["details"] == {**params._asdict(), "zeta": data["value"]}
    assert bounds.stage_params(10**6, 1, "1/3").s == 5
    # What float() reads converts as before; other text is refused as before,
    # and so is a fraction beyond the range of a float.
    assert cli_params._conv_real("0.1", "--eta") == 0.1
    assert cli_params._conv_real(" 1e-3 ", "--eta") == 1e-3
    for text in ("x", "1/0", "1/2/3", "1" + "0" * 400 + "/3"):
        code, out, err = run_cli(capsys, ["bounds", "--name", "prop41", "-n", "100",
                                          "--eta", text])
        assert (code, out) == (1, "")
        assert err == f"thinlab: error: --eta must be a number, got {text!r}\n"


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


def test_oracle_runs_two_choices_at_eight_bins(capsys):
    code, out, _ = run_cli(
        capsys, ["oracle", "-n", "8", "-t", "8", "--strategy", "two-choices", "--no-meta"])
    assert code == 0
    assert sum(Fraction(row["exact"]) for row in json.loads(out)["pmf"]) == 1


def test_oracle_refuses_a_request_beyond_the_step_limit(capsys):
    code, out, err = run_cli(capsys, ["oracle", "-n", "10000000", "-t", "1"])
    assert code == 1
    assert out == ""
    assert err == "thinlab: error: 1 balls in 10000000 bins need over 5100000 bin steps\n"


def test_load_ratios_beyond_float_range_are_refused(capsys):
    message = "load ratio must be at most 1.7976931348623157e+308, the largest float"
    for argv in (
        ["bounds", "--name", "stage_params", "-n", "1000", "--rho", "1e400", "--epsilon", "0.5"],
        ["diagnose", "-n", "1000", "--rho", "1e400"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == f"thinlab: error: {message}\n"


def test_diagnose_outputs(capsys):
    # The exact bytes, key order included: the stage plan and rows, then
    # the strategy, seed and rejections that the handler appends.
    stages = {
        "n": 100, "rho": "1", "epsilon": 1.0, "ell": 2, "s": 2, "w": 25, "zeta": 0.0229925,
        "stages": [
            {"k": 1, "rich_bins": 25, "count_below_zeta": False, "load_below_target": True},
            {"k": 2, "rich_bins": 7, "count_below_zeta": False, "load_below_target": False},
        ],
    }
    csv = "k,rich_bins,count_below_zeta,load_below_target\n1,25,false,true\n2,7,false,false\n"
    for strategy, rejections in (("one-choice", {"total": 0, "budget_ratio": 0.0}),
                                 ("threshold:2,k=2", {"total": 7, "budget_ratio": 0.21})):
        argv = ["diagnose", "-n", "100", "--rho", "1", "--epsilon", "1",
                "--strategy", strategy, "--seed", "21", "--no-meta"]
        payload = {**stages, "strategy": strategy, "seed": 21, "rejections": rejections}
        assert run_cli(capsys, argv) == (0, json.dumps(payload, indent=2) + "\n", "")
        assert run_cli(capsys, argv + ["--format", "csv"]) == (0, csv, "")


def _no_run(*args, **kwargs):
    raise AssertionError("diagnose ran a trace it should have refused")


def test_diagnose_refuses_a_trace_beyond_the_memory_budget(capsys, monkeypatch):
    # engine.run refuses it before anything is allocated.
    for path in ("_columns", "step"):
        monkeypatch.setattr(engine, path, _no_run)
    code, out, err = run_cli(
        capsys, ["diagnose", "-n", "1000000000", "--rho", "1", "--no-meta"])
    assert code == 1
    assert out == ""
    assert err.startswith("thinlab: error: a trace of 1000000000 balls")


def test_diagnose_checks_its_parameters_before_it_draws(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", _no_run)
    for epsilon, message in (
        ("0", "epsilon must lie in (0, 2), got 0.0"),
        ("0.25", "stage diagnostics need a trace of at least s*w = 6*166667 = 1000002 "
                 "balls, got 1000000"),
    ):
        code, out, err = run_cli(capsys, ["diagnose", "-n", "1000000", "--epsilon", epsilon])
        assert code == 1
        assert out == ""
        assert err == f"thinlab: error: {message}\n"


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


def test_handlers_call_the_names_the_benchmark_swaps(capsys, monkeypatch):
    # benchmarks/workloads.py (instrumented) swaps these module globals for
    # spanning wrappers, so a handler or campaign that stopped reading them
    # would run untraced; the trace workload calls the engine names itself.
    simulate = ["simulate", "-n", "50", "--strategy", "two-choices", "--trials", "3",
                "--seed", "2", "--workers", "1", "--no-meta"]
    diagnose = ["diagnose", "-n", "100", "--rho", "1", "--epsilon", "1", "--seed", "21",
                "--no-meta"]
    expected = [run_cli(capsys, argv) for argv in (simulate, diagnose)]
    calls = []

    def record(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((cli, "run_trials"), (cli, "run"), (cli, "stage_diagnostics"),
                        (experiments, "run_summary")):
        record(owner, name)
    assert run_cli(capsys, simulate) == expected[0]
    assert calls == ["run_trials"] + ["run_summary"] * 3
    calls.clear()
    assert run_cli(capsys, diagnose) == expected[1]
    assert calls == ["run", "stage_diagnostics"]
    for name in ("run", "run_summary", "trace_from_json", "replay"):
        assert callable(getattr(engine, name)), name


# sha256 of the --no-meta stdout of every subcommand in both formats: the
# handlers may change how they build a table, not a byte of what it prints.
CLI_DIGESTS = [
    ("simulate -n 1000 --trials 5 --seed 3", "csv",
     "82b7fd8aa1dc68df37dd04f261b03f8783ad5a6d9ed830187a0e8833340bed15"),
    ("simulate -n 1000 --trials 5 --seed 3", "json",
     "60e4ef4c378e6a3a2e037b0a669ab9f45150b87f667ef6452b8bef8cab35a904"),
    ("simulate -n 200 -t 500 --strategy two-choices --trials 120 --level 3", "csv",
     "77be9503d1e524438776091457045e2acda0d2dcacd0c26504c59762298c68cd"),
    ("simulate -n 200 -t 500 --strategy two-choices --trials 120 --level 3", "json",
     "072b4be211dd790b814d177d392bf911f1d00d0d26f581ee69846f3dc62fbe3f"),
    ("scale --grid 100,1000 --trials 4 --seed 2", "csv",
     "e10c4e3fe889e9b6f1f246ffb132c5b917995587e4df06ef80654ce6106b0aca"),
    ("scale --grid 100,1000 --trials 4 --seed 2", "json",
     "e15325ed4daba95162255e538f40bdcaf94dccb4a29bc5e572c9240d11668fb9"),
    ("bounds --name prop41 -n 1000000 --eta 4", "csv",
     "2e0e2452536c4f109561e5fc1f90d9e07c6d3a0305c9d6387a0f5c0cca0cd251"),
    ("bounds --name prop41 -n 1000000 --eta 4", "json",
     "ddaa6dd023550ebf0a85cf487b5e3ceefc0bf599ffeec12792ab58d602150c77"),
    ("bounds --name lemma22 --theta 0.5 -a 2 --set-size 50,100", "csv",
     "23dd4c4d1d69a75565e3c2e1557ab30c9209455b468fe915ce9566960f71fbf4"),
    ("bounds --name lemma22 --theta 0.5 -a 2 --set-size 50,100", "json",
     "7c5708efa8fd956918f0cb10a654546bd62e80e0c3b94937050d91ecb8bbad4b"),
    ("oracle -n 3 -t 3 --strategy threshold:1", "csv",
     "28818b0f489b7b0f737733fa2b8e3954274cfee946aa2fa6b1af75563cda47f3"),
    ("oracle -n 3 -t 3 --strategy threshold:1", "json",
     "0d1875007860680547ab6d56b990f81f93567283fb1ce119c60312354b5236a4"),
    ("oracle --check -n 2 -t 2", "csv",
     "59747518d86018626cf9bc04f55baeceaabe8a3dd2dcb681bd6e15936477fd07"),
    ("oracle --check -n 2 -t 2", "json",
     "9db360fdcbc6ad2c2575463a7bcbb7c8f2034ccc580771c0f1275c28912aa442"),
    ("diagnose -n 1000 -t 1500 --epsilon 1/2 --seed 7", "csv",
     "2efe5e7b91d6521d16ec4b9f96c3424797291b79bdfd7c73795b5c7664cab3c9"),
    ("diagnose -n 1000 -t 1500 --epsilon 1/2 --seed 7", "json",
     "cc8fd681155bbf59e3f2dfc449261d8ae383b59eeee6f80a40125ee8a06293e5"),
    ("check --suite bounds", "csv",
     "17e6325d7b2db94f92a0746dd76319fd6bbc4431af041b0c8b870a48a946d28a"),
    ("check --suite bounds", "json",
     "b023816d6fd0d455d5899f8b2e0d959c73687dc31171bb95922b596570cf47fc"),
]


@pytest.mark.parametrize("argv, out_format, digest", CLI_DIGESTS,
                         ids=[f"{argv} {out_format}" for argv, out_format, _ in CLI_DIGESTS])
def test_cli_output_bytes_are_pinned(capsys, argv, out_format, digest):
    code, out, err = run_cli(capsys, argv.split() + ["--format", out_format, "--no-meta"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
