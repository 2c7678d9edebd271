"""Tests for Monte Carlo campaigns, estimates, and diagnostics."""

import concurrent.futures
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import thinlab
from thinlab import cli, errors, experiments
from thinlab.bounds import rejection_budget, target_maxload
from thinlab.engine import run, run_summary, summary_peak_bytes
from thinlab.errors import ConfigurationError, DomainError, ResourceLimitError
from thinlab.experiments import (
    ExperimentConfig,
    parse_rho,
    rejection_stats,
    run_trials,
    scaling_study,
    stage_diagnostics,
    tail_estimate,
    type1_quantile,
    wilson_interval,
)
from thinlab.oracle import exact_one_choice_maxload, pmf_from_counts, tv_distance
from thinlab.rng import _CHUNK, RngStream, mix_seeds
from thinlab.strategies import StrategySpec, parse_strategy


def small_config(**overrides):
    base = dict(n=50, strategy="threshold:1", trials=40, base_seed=7, rho=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_parse_rho_exactness():
    assert parse_rho("1/2") == Fraction(1, 2)
    assert parse_rho("0.5") == Fraction(1, 2)
    assert parse_rho(0.5) == Fraction(1, 2)
    assert parse_rho(2) == Fraction(2)
    assert parse_rho(Fraction(7, 3)) == Fraction(7, 3)
    for bad in ("", "x", "1/0", 0, -1, None):
        with pytest.raises(ConfigurationError):
            parse_rho(bad)


def test_config_validation_and_ball_count():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(n=10, strategy="one-choice", trials=5, base_seed=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(n=10, strategy="one-choice", trials=5, base_seed=1, rho=1, t=10)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(n=10, strategy="one-choice", trials=0, base_seed=1, rho=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(n=10, strategy="nonsense", trials=5, base_seed=1, rho=1)
    assert small_config(rho="1/3", n=10).ball_count == 3
    assert small_config(rho="2/3", n=100).ball_count == 66
    assert small_config(rho=None, t=17).ball_count == 17
    assert small_config(n=10**6, rho="1").ball_count == 10**6


def test_trial_seeds_are_distinct():
    config = small_config(trials=1000)
    seeds = {config.trial_seed(i) for i in range(1000)}
    assert len(seeds) == 1000


def test_run_trials_deterministic_and_parallel_invariant():
    config = small_config(trials=60)
    single = run_trials(config, workers=1)
    again = run_trials(config, workers=1)
    multi = run_trials(config, workers=3)
    assert single == again
    assert single == multi


def test_run_trials_matches_direct_runs():
    config = small_config(trials=5)
    stats = run_trials(config)
    for i in range(5):
        trace = run(config.n, config.ball_count, config.spec, config.trial_seed(i))
        assert stats.per_trial_maxload[i] == int(trace.loads.max())
        assert stats.per_trial_rejections[i] == trace.final_state.rejections
        assert stats.per_trial_seeds[i] == config.trial_seed(i)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "strategy", ["one-choice", "always-reject", "threshold:1", "threshold:auto"])
def test_run_trials_with_kept_draws_matches_run_summary(strategy, workers):
    # Campaign trials, in this process or in pool workers, share only a
    # zeroed load table, so each equals a bare run_summary call.  At
    # n = 1000, threshold:1 rejects most balls, and t spans two draw chunks.
    config = ExperimentConfig(n=1000, strategy=strategy, trials=4, base_seed=3, t=_CHUNK + 5)
    stats = run_trials(config, workers=workers)
    for i, seed in enumerate(stats.per_trial_seeds):
        loads, rejections = run_summary(config.n, config.ball_count, config.spec, seed)
        assert stats.per_trial_maxload[i] == int(loads.max())
        assert stats.per_trial_rejections[i] == rejections


# Grids of runs, one table per chunk of trials, and per-trial summaries.
@pytest.mark.parametrize(
    "strategy, n, t, trials",
    [("threshold:1", 3, 3, 50), ("one-choice", 40_000, 40_000, 13), ("two-choices", 30, 30, 25)],
)
def test_run_trials_is_the_same_at_1_2_and_3_workers(strategy, n, t, trials):
    config = ExperimentConfig(n=n, strategy=strategy, trials=trials, base_seed=5, t=t)
    stats = [run_trials(config, workers=workers) for workers in (1, 2, 3)]
    assert stats[0] == stats[1] == stats[2]
    for i, seed in enumerate(stats[0].per_trial_seeds):
        loads, rejections = run_summary(n, t, config.spec, seed)
        assert stats[0].per_trial_maxload[i] == int(loads.max())
        assert stats[0].per_trial_rejections[i] == rejections


def test_campaigns_keep_the_names_the_benchmark_spans(monkeypatch):
    # benchmarks/workloads.py (instrumented) swaps these names to span the
    # calls, and its per-strategy layer metrics come from one run_summary
    # call per trial of the strategies that the counting kernel does not
    # batch.
    for owner, name in ((experiments, "run_summary"), (cli, "run_trials"), (cli, "run"),
                        (cli, "stage_diagnostics"), (RngStream, "bounded_block")):
        assert callable(getattr(owner, name)), name
    summary = experiments.run_summary
    calls = []

    def counted(n, t, spec, seed):
        calls.append(seed)
        return summary(n, t, spec, seed)

    monkeypatch.setattr(experiments, "run_summary", counted)
    for strategy in ("two-choices", "threshold:4,k=2"):
        calls.clear()
        stats = run_trials(small_config(strategy=strategy, trials=6), workers=1)
        assert calls == list(stats.per_trial_seeds)


def test_summary_statistics_shape():
    stats = run_trials(small_config(trials=40))
    assert stats.trials == 40
    assert len(stats.per_trial_maxload) == 40
    q = stats.quantiles
    assert q["p50"] <= q["p90"] <= q["p99"] <= q["max"]
    assert min(stats.per_trial_maxload) <= stats.median_maxload <= q["max"]
    assert stats.mean_maxload == pytest.approx(
        sum(stats.per_trial_maxload) / 40
    )
    assert stats.normalized_ratio == pytest.approx(
        stats.median_maxload / target_maxload(50)
    )
    payload = stats.as_dict()
    assert payload["strategy"] == "threshold:1"
    assert payload["quantiles"]["p50"] == q["p50"]


def test_type1_quantile_convention():
    data = list(range(1, 11))
    assert type1_quantile(data, 0.5) == 5
    assert type1_quantile(data, 0.9) == 9
    assert type1_quantile(data, 0.99) == 10
    assert type1_quantile(data, 1.0) == 10
    assert type1_quantile(data, 0.05) == 1
    with pytest.raises(ConfigurationError):
        type1_quantile([], 0.5)
    with pytest.raises(ConfigurationError):
        type1_quantile(data, 0.0)


def test_memory_guard():
    config = ExperimentConfig(
        n=10**9, strategy="one-choice", trials=2, base_seed=1, t=10**9
    )
    with pytest.raises(ResourceLimitError):
        run_trials(config)


@pytest.mark.parametrize(
    "strategy",
    ["threshold:auto", "one-choice", "always-reject", "two-choices", "threshold:4,k=2"])
def test_memory_guard_admits_two_workers_at_1e8_balls(strategy):
    # Checked without running: each trial holds a load table of at most
    # 4 bytes per bin and chunk buffers, no t-word block and no int64 loads;
    # threshold:4,k=2 adds 6 bytes per bin of primary counts and cuts.
    n = t = 10**8
    config = ExperimentConfig(n=n, strategy=strategy, trials=100, base_seed=1, t=t)
    experiments._check_memory(n, t, config.spec, config.trials, workers=2)


def test_memory_guard_counts_only_the_kernels_that_run_at_once(monkeypatch):
    # A campaign runs at most one chunk per worker at a time, and a single
    # chunk in this process, so idle workers hold no kernel.
    n = t = 10**5
    config = ExperimentConfig(n=n, strategy="two-choices", trials=1, base_seed=1, t=t)
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", 3 * summary_peak_bytes(n, t, config.spec))
    assert run_trials(config, workers=4).trials == 1
    experiments._check_memory(n, t, config.spec, 2, workers=8)  # two chunks
    with pytest.raises(ResourceLimitError, match="a campaign of 4 trials on 4 workers"):
        experiments._check_memory(n, t, config.spec, 4, workers=4)


def test_run_trials_forks_only_the_workers_that_get_a_chunk(monkeypatch):
    # The pool forks all its workers up front, so a campaign of 2 chunks on
    # 4 workers asks for 2.
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = small_config(strategy="two-choices", trials=2)
    assert run_trials(config, workers=4) == run_trials(config, workers=1)
    assert sizes == [2]


def test_campaign_peak_within_the_memory_guard():
    # Many tiny trials: the grids of the counting kernel and the per-trial
    # results, which the guard counts beside them, bind.
    config = ExperimentConfig(n=3, strategy="threshold:1", trials=30_000, base_seed=2, t=3)
    run_trials(config)  # any lazy set-up happens outside the trace
    tracemalloc.start()
    try:
        run_trials(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    needed = summary_peak_bytes(3, 3, config.spec) + experiments._TRIAL_RESULT_BYTES * 30_000
    assert peak <= needed


def test_workers_env_is_honored(monkeypatch):
    config = small_config(trials=10)
    monkeypatch.setenv("THINLAB_WORKERS", "2")
    from_env = run_trials(config)
    monkeypatch.setenv("THINLAB_WORKERS", "1")
    sequential = run_trials(config)
    assert from_env == sequential
    monkeypatch.setenv("THINLAB_WORKERS", "many")
    with pytest.raises(ConfigurationError):
        run_trials(config)
    monkeypatch.setenv("THINLAB_WORKERS", "0")
    with pytest.raises(ConfigurationError):
        run_trials(config)


def test_wilson_interval_values():
    low, high = wilson_interval(0, 1000)
    assert low == 0.0
    assert high == pytest.approx(3.8415 / 1003.8415, rel=1e-3)
    low, high = wilson_interval(5, 10)
    assert low == pytest.approx(0.2366, abs=2e-3)
    assert high == pytest.approx(0.7634, abs=2e-3)
    with pytest.raises(ConfigurationError):
        wilson_interval(5, 0)
    with pytest.raises(ConfigurationError):
        wilson_interval(11, 10)


def test_tail_estimate_extremes():
    config = small_config(trials=100)
    certain = tail_estimate(config, 0)
    assert certain.p_hat == 1.0 and certain.successes == 100
    impossible = tail_estimate(config, config.ball_count)
    assert impossible.p_hat == 0.0
    assert impossible.wilson_high < 0.05
    with pytest.raises(ConfigurationError):
        tail_estimate(small_config(trials=50), 3)
    stats = run_trials(config)
    middle = tail_estimate(config, 3)
    assert middle.successes == sum(1 for m in stats.per_trial_maxload if m > 3)


def test_scaling_study_composition():
    rows = scaling_study([50], rho=1, strategy="threshold:1", trials=20, base_seed=9)
    assert len(rows) == 1
    row = rows[0]
    config = ExperimentConfig(
        n=50, strategy="threshold:1", trials=20, base_seed=mix_seeds(9, 50), rho=1
    )
    stats = run_trials(config)
    assert row.median_maxload == stats.median_maxload
    assert row.target == pytest.approx(target_maxload(50))
    assert row.ratio == stats.normalized_ratio
    assert row.trials == 20


def test_scaling_study_with_growing_ball_counts():
    # Each grid point has more balls than the last; every median equals
    # the one of bare run_summary calls on the campaign's trial seeds.
    grid = [100, 1000, 40_000]
    rows = scaling_study(grid, rho=2, strategy="threshold:1", trials=3, base_seed=9)
    for row in rows:
        campaign_seed = mix_seeds(9, row.n)
        maxloads = sorted(
            int(run_summary(row.n, 2 * row.n, "threshold:1", mix_seeds(campaign_seed, i))[0].max())
            for i in range(3)
        )
        assert row.median_maxload == type1_quantile(maxloads, 0.5)


def test_scaling_study_resolves_each_strategy_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return parse_strategy(*args, **kwargs)

    monkeypatch.setattr(experiments, "parse_strategy", counted)
    scaling_study([100, 200, 400], rho=1, strategy="threshold:auto", trials=3, base_seed=1,
                  workers=1)
    assert len(calls) == 3


def test_scaling_study_grid_validation(monkeypatch):
    with pytest.raises(ConfigurationError):
        scaling_study([], rho=1, strategy="one-choice", trials=5, base_seed=1)
    with pytest.raises(ConfigurationError):
        scaling_study([100, 100], rho=1, strategy="one-choice", trials=5, base_seed=1)
    with pytest.raises(ConfigurationError):
        scaling_study([1000, 100], rho=1, strategy="one-choice", trials=5, base_seed=1)

    # The whole grid is checked before its first campaign runs.
    def no_campaign(*args, **kwargs):
        raise AssertionError("scaling_study ran a campaign of a grid it should have refused")

    monkeypatch.setattr(experiments, "run_trials", no_campaign)
    with pytest.raises(DomainError, match="bin count must be at least 3, got 2"):
        scaling_study([2, 10], rho=1, strategy="one-choice", trials=200_000, base_seed=1)
    with pytest.raises(ResourceLimitError, match="a campaign of 20 trials on 1 workers"):
        scaling_study([200_000, 10**12], rho=1, strategy="threshold:auto", trials=20,
                      base_seed=1, workers=1)


def test_stage_diagnostics_counts():
    trace = run(100, 100, "one-choice", seed=21)
    diag = stage_diagnostics(trace, rho=1, epsilon=1)
    assert (diag.ell, diag.s, diag.w) == (2, 2, 25)
    distinct_first_window = len(np.unique(trace.primary_bins[:25]))
    assert diag.per_stage[0].rich_bins == distinct_first_window
    # Stage 2 by hand: bins with two or more suggestions among first 50.
    counts = np.bincount(trace.primary_bins[:50], minlength=100)
    assert diag.per_stage[1].rich_bins == int((counts >= 2).sum())
    # Flags recomputed by hand.
    for row in diag.per_stage:
        upto = row.k * diag.w
        loads_now = np.bincount(trace.final_bins[:upto], minlength=100)
        assert row.load_below_target == (loads_now.max() < (2 - 1) * diag.ell)
        assert row.count_below_zeta == (row.rich_bins < 100 * diag.zeta**row.k)


def test_stage_diagnostics_short_trace_error():
    trace = run(100, 30, "one-choice", seed=3)
    with pytest.raises(ConfigurationError) as excinfo:
        stage_diagnostics(trace, rho=1, epsilon=1)
    assert "50" in str(excinfo.value)  # names the required length s*w


def test_rejection_stats():
    accept_trace = run(100, 100, "one-choice", seed=5)
    assert rejection_stats(accept_trace) == (0, 0.0)
    reject_trace = run(100, 50, "always-reject", seed=5)
    stats = rejection_stats(reject_trace)
    assert stats.total_rejections == 50
    assert stats.budget_ratio == pytest.approx(50 / rejection_budget(100))
    threshold_trace = run(100, 100, "threshold:auto", seed=5)
    stats = rejection_stats(threshold_trace)
    assert stats.total_rejections == threshold_trace.final_state.rejections


def test_threshold_decomposition_bound():
    # Sample-path bound: max load never exceeds ell plus the heaviest
    # secondary-landing count.
    for seed in range(5):
        trace = run(200, 400, StrategySpec("threshold", ell=2), seed=seed)
        bound = 2 + int(trace.final_state.secondary_used.max())
        assert int(trace.loads.max()) <= bound


def test_one_choice_empirical_matches_dp():
    config = ExperimentConfig(
        n=4, strategy="one-choice", trials=10**5, base_seed=123, t=4
    )
    stats = run_trials(config)
    counts = {}
    for value in stats.per_trial_maxload:
        counts[value] = counts.get(value, 0) + 1
    empirical = pmf_from_counts(counts)
    exact = exact_one_choice_maxload(4, 4)
    assert tv_distance(empirical, exact) < 0.02


def test_import_leaves_the_process_pool_unloaded():
    # Only campaigns with more than one worker import the pool machinery.
    src = os.path.dirname(os.path.dirname(thinlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, thinlab; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert result.stdout.strip() == "False"
