"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Heavy fixtures reuse a single n=10^6 campaign; all seeds are frozen so
every run reproduces the same numbers.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from acceptance_report import record
from reference_bounds import (
    ref_lemma22,
    ref_lemma23,
    ref_lower_ell,
    ref_prop41,
    ref_prop41_exponent,
    ref_prop51,
    ref_rejection_budget,
    ref_stage_params,
    ref_target_maxload,
    ref_threshold_L,
    rel_err,
)
from thinlab import bounds, cli
from thinlab.engine import run, run_summary
from thinlab.experiments import (
    ExperimentConfig,
    run_trials,
    scaling_study,
    tail_estimate,
)
from thinlab.oracle import (
    STATISTICS,
    exact_maxload_distribution,
    exact_one_choice_maxload,
    pmf_from_counts,
    poisson_excess_mean,
    poissonization_check,
    tv_distance,
)
from thinlab.rng import mix_seeds
from thinlab.strategies import StrategySpec, parse_strategy

ACCEPTANCE_SEED = 20260819


@pytest.fixture(scope="module")
def campaign_1m():
    """One hundred n=10^6 full-load threshold:auto trials, shared by two tests."""
    start = time.monotonic()
    config = ExperimentConfig(
        n=10**6,
        strategy="threshold:auto",
        trials=100,
        base_seed=ACCEPTANCE_SEED,
        rho=1,
    )
    stats = run_trials(config)
    return stats, time.monotonic() - start


def test_c01_exact_oracles_agree():
    start = time.monotonic()
    agree = True
    for n, t in ((2, 2), (2, 3), (3, 2), (3, 3)):
        accept = exact_maxload_distribution(n, t, "one-choice")
        reject = exact_maxload_distribution(n, t, "always-reject")
        counted = exact_one_choice_maxload(n, t)
        agree &= accept == counted == reject
    elapsed = time.monotonic() - start
    passed = agree and elapsed < 10
    assert record(
        1,
        passed,
        f"state-pass accept/reject pmfs equal the power-recurrence pmf on 4 instances "
        f"({elapsed:.2f}s < 10s)",
    )


def test_c02_monte_carlo_matches_exact_pmf():
    start = time.monotonic()
    config = ExperimentConfig(
        n=3, strategy="threshold:1", trials=10**5, base_seed=777, t=3
    )
    stats = run_trials(config)
    empirical = pmf_from_counts(Counter(stats.per_trial_maxload))
    exact = exact_maxload_distribution(3, 3, "threshold:1")
    tv = tv_distance(empirical, exact)
    elapsed = time.monotonic() - start
    passed = tv <= 0.02 and elapsed < 30
    assert record(
        2,
        passed,
        f"n=3 t=3 threshold:1, 1e5 trials: TV={tv:.5f} <= 0.02 ({elapsed:.1f}s < 30s)",
    )


def test_c03_threshold_guarantee_random_configs():
    rng = random.Random(ACCEPTANCE_SEED)
    violations = 0
    for _ in range(100):
        n = rng.randint(2, 10**4)
        t = rng.randint(1, 2 * n)
        ell = rng.choice((1, 2, 3, 4))
        trace = run(n, t, StrategySpec("threshold", ell=ell), seed=rng.getrandbits(63))
        state = trace.final_state
        if int(state.primary_accepted.max()) > ell:
            violations += 1
        elif not np.array_equal(state.load, state.primary_accepted + state.secondary_used):
            violations += 1
    passed = violations == 0
    assert record(
        3,
        passed,
        f"100 random configs (n<=1e4, t<=2n, ell in 1..4): {violations} violations "
        f"of the accepted-primary cap and load decomposition",
    )


def test_c04_million_bin_median_and_ratio(campaign_1m):
    stats, elapsed = campaign_1m
    ratio = stats.normalized_ratio
    passed = stats.median_maxload in (5, 6) and 0.6 <= ratio <= 1.2 and elapsed < 300
    assert record(
        4,
        passed,
        f"n=1e6 rho=1 threshold:auto x100: median={stats.median_maxload} in {{5,6}}, "
        f"ratio={ratio:.4f} in [0.6,1.2] ({elapsed:.1f}s < 300s)",
    )


def test_c05_strategy_separation_across_grid():
    grid = (10**4, 10**5, 10**6)
    medians = {}
    for strategy in ("two-choices", "threshold:auto", "one-choice"):
        rows = scaling_study(
            grid, rho=1, strategy=strategy, trials=50, base_seed=ACCEPTANCE_SEED
        )
        medians[strategy] = {row.n: row.median_maxload for row in rows}
    ordered = all(
        medians["two-choices"][n] < medians["threshold:auto"][n] < medians["one-choice"][n]
        for n in grid
    )
    triple = {n: (medians['two-choices'][n], medians['threshold:auto'][n],
                  medians['one-choice'][n]) for n in grid}
    assert record(
        5,
        ordered,
        f"median max loads (two-choices, threshold:auto, one-choice) strictly "
        f"ordered at every grid point: {triple}",
    )


def test_c06_tail_domination_at_eta_four():
    level = (2 + 4) * bounds.threshold_L(10**6)
    config = ExperimentConfig(
        n=10**6,
        strategy="threshold:auto",
        trials=1000,
        base_seed=ACCEPTANCE_SEED,
        rho=1,
    )
    estimate = tail_estimate(config, level)
    passed = estimate.wilson_high <= 0.055
    assert record(
        6,
        passed,
        f"n=1e6 eta=4: {estimate.successes}/1000 trials exceeded load {level}; "
        f"Wilson-95 upper {estimate.wilson_high:.5f} <= 0.055",
    )


def test_c07_poissonization_battery():
    worst = None
    all_hold = True
    for n in (2, 3, 4):
        for t in (1, 2, 3, 4):
            for statistic in STATISTICS:
                top = t + 1 if statistic == "max_ge_a" else n
                for level in range(0, top + 1):
                    result = poissonization_check(n, t, statistic, level)
                    all_hold &= result.holds
                    slack = result.rhs - result.lhs
                    if worst is None or slack < worst:
                        worst = slack
    assert record(
        7,
        all_hold,
        f"exact probability <= 2x Poisson bound for both statistics, "
        f"(n,t) in {{2,3,4}}x{{1..4}}, all levels; min slack {worst:.3g}",
    )


def test_c08_subset_bounds_dominate_empirically():
    trials = 10**5
    spec = parse_strategy("one-choice")
    saturation_cut = 0.5 * 100 / (2 * np.e)
    below_level = 0
    saturated = 0
    for i in range(trials):
        loads, _ = run_summary(1000, 500, spec, mix_seeds(888, i))
        window = loads[:100]
        if int(window.max()) < 2:
            below_level += 1
        if int((window >= 1).sum()) <= saturation_cut:
            saturated += 1
    level_bound = bounds.clamp(bounds.lemma22_bound(0.5, 2, 100))
    saturation_bound = bounds.clamp(bounds.lemma23_bound(0.5, 100))
    p_below = below_level / trials
    p_saturated = saturated / trials
    passed = p_below <= level_bound and p_saturated <= saturation_bound
    assert record(
        8,
        passed,
        f"n=1000 t=500 |S|=100: P(max over S < 2)={p_below:.2e} <= {level_bound:.4f}; "
        f"P(occupied <= {saturation_cut:.2f})={p_saturated:.2e} <= {saturation_bound:.4f}",
    )


def test_c09_rejection_calibration(campaign_1m):
    stats, _elapsed = campaign_1m
    mean_rejections = sum(stats.per_trial_rejections) / stats.trials
    expected = 10**6 * poisson_excess_mean(1.0, 4)
    deviation = abs(mean_rejections / expected - 1)
    budget = bounds.rejection_budget(10**6)
    worst_ratio = max(stats.per_trial_rejections) / budget
    passed = deviation <= 0.15 and worst_ratio < 0.5
    assert record(
        9,
        passed,
        f"mean rejections {mean_rejections:.1f} vs Poisson excess {expected:.1f} "
        f"(dev {deviation:.2%} <= 15%); worst budget ratio {worst_ratio:.4f} < 0.5",
    )


def test_c10_worker_count_never_changes_output(tmp_path):
    campaigns = {
        "simulate": ["simulate", "-n", "10000", "--rho", "1", "--trials", "20",
                     "--seed", "13", "--no-meta"],
        "scale": ["scale", "--grid", "1000,2000", "--trials", "10",
                  "--seed", "13", "--no-meta"],
    }
    identical = True
    for name, argv in campaigns.items():
        outputs = []
        for workers in ("1", "4"):
            out_path = tmp_path / f"{name}-w{workers}.csv"
            code = cli.main(argv + ["--workers", workers, "--out", str(out_path)])
            identical &= code == 0
            outputs.append(out_path.read_bytes())
        identical &= outputs[0] == outputs[1]
    assert record(
        10,
        identical,
        "simulate and scale outputs byte-identical for --workers 1 vs 4",
    )


def test_c11_bounds_match_high_precision_reference():
    rng = random.Random(4242)
    worst = 0.0

    def track(value, reference):
        nonlocal worst
        worst = max(worst, rel_err(value, reference))

    # Parameter ranges are capped so every true value stays inside the
    # normal float64 range; below ~1e-308 a relative-error comparison
    # against the 40-digit reference is no longer meaningful.
    for _ in range(100):
        n = rng.randint(3, 10**9)
        track(bounds.threshold_L(n), ref_threshold_L(n))
        track(bounds.lower_ell(n), ref_lower_ell(n))
        track(bounds.target_maxload(n), ref_target_maxload(n))

        theta = rng.uniform(0.01, 1.0)
        a = rng.randint(1, 50)
        s_size = rng.uniform(1.0, 1500.0)
        track(bounds.lemma22_bound(theta, a, s_size), ref_lemma22(theta, a, s_size))
        track(bounds.lemma23_bound(theta, s_size), ref_lemma23(theta, s_size))

        big_n = rng.randint(16, 10**9)
        eta = rng.uniform(0.01, 10.0)
        result = bounds.prop41_bound(big_n, eta)
        track(result.value, ref_prop41(big_n, eta))
        track(result.exponent, ref_prop41_exponent(big_n, eta))

        small_n = rng.randint(1, 10**9)
        epsilon = rng.uniform(0.01, 1.5)
        track(bounds.prop51_bound(small_n, epsilon), ref_prop51(small_n, epsilon))
        track(bounds.rejection_budget(n), ref_rejection_budget(n))

        rho = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        stage_eps = rng.uniform(0.01, 2.0)
        params = bounds.stage_params(n, rho, stage_eps)
        ref_params = ref_stage_params(n, rho, stage_eps)
        exact_match = (params.ell, params.s, params.w) == tuple(ref_params[:3])
        if not exact_match:
            worst = 1.0
        track(params.zeta, ref_params[3])

    passed = worst < 1e-12
    assert record(
        11,
        passed,
        f"eight evaluators (plus the rejection budget) vs 40-digit reference, "
        f"100 random points each: worst rel err {worst:.2e} < 1e-12",
    )
