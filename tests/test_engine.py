"""Tests for the allocation engine: stepping, runs, traces, and accessors."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab import engine
from thinlab.engine import (
    AllocationRecord,
    Trace,
    level_set_count,
    max_load,
    new_process,
    replay,
    run,
    run_summary,
    run_with_streams,
    step,
    summary_peak_bytes,
    trace_from_json,
)
from thinlab.errors import ConfigurationError
from thinlab.rng import FixedStream, RngStream, mix_seeds
from thinlab.strategies import StrategySpec, parse_strategy

THRESHOLD_1 = StrategySpec("threshold", ell=1)
ONE_CHOICE = StrategySpec("always_accept")
ALWAYS_REJECT = StrategySpec("always_reject")
TWO_CHOICES = StrategySpec("two_choices_greedy")


def assert_invariants(state):
    assert state.load.sum() == state.t
    assert np.array_equal(state.load, state.primary_accepted + state.secondary_used)
    assert np.all(state.primary_accepted <= state.primary_suggested)
    assert state.rejections <= state.t * state.strategy.retry_budget
    if state.strategy.kind == "threshold":
        assert state.primary_accepted.max(initial=0) <= state.strategy.ell
    if state.strategy.kind != "two_choices_greedy" and state.strategy.retry_budget == 1:
        assert state.secondary_used.sum() == state.rejections


def test_new_process_validation():
    state = new_process(5, StrategySpec("threshold", ell=2))
    assert state.n == 5 and state.t == 0 and state.rejections == 0
    assert state.load.tolist() == [0] * 5
    assert new_process(1, "one-choice").n == 1
    with pytest.raises(ConfigurationError):
        new_process(0, ONE_CHOICE)
    with pytest.raises(ConfigurationError):
        new_process(5.0, ONE_CHOICE)


def test_step_accepts_below_threshold():
    state = new_process(2, THRESHOLD_1)
    record = step(state, FixedStream([0]), FixedStream([]))
    assert record == AllocationRecord(1, 1, ("accept",), 1, None)
    assert state.load.tolist() == [1, 0]
    assert state.rejections == 0


def test_step_rejects_at_threshold():
    state = new_process(2, THRESHOLD_1)
    step(state, FixedStream([0]), FixedStream([]))
    record = step(state, FixedStream([0]), FixedStream([1]))
    assert record == AllocationRecord(2, 1, ("reject",), 2, 0)
    assert state.load.tolist() == [1, 1]
    assert state.rejections == 1
    assert state.primary_suggested.tolist() == [2, 0]
    assert state.secondary_used.tolist() == [0, 1]


def test_step_always_reject_lands_on_pool_draw():
    state = new_process(2, ALWAYS_REJECT)
    record = step(state, FixedStream([1]), FixedStream([0]))
    assert record.final_bin == 1
    assert record.secondary_pool_index == 0
    assert record.decisions == ("reject",)


def test_retry_budget_two_full_walkthrough():
    spec = StrategySpec("threshold", ell=1, retry_budget=2)
    state = new_process(2, spec)
    primaries = FixedStream([0, 0, 0])
    pool = FixedStream([0, 1, 1])

    first = step(state, primaries, pool)
    assert first.decisions == ("accept",)

    # Second ball: primary rejected, first retry rejected, then forced.
    second = step(state, primaries, pool)
    assert second.decisions == ("reject", "reject")
    assert second.final_bin == 2
    assert second.secondary_pool_index == 1
    assert state.rejections == 2

    # Third ball: primary rejected, retry suggestion accepted.
    third = step(state, primaries, pool)
    assert third.decisions == ("reject", "accept")
    assert third.final_bin == 2
    assert third.secondary_pool_index == 2
    assert state.rejections == 3
    assert state.load.tolist() == [1, 2]
    assert state.primary_suggested.tolist() == [3, 0]
    assert state.primary_accepted.tolist() == [1, 0]
    assert state.secondary_used.tolist() == [0, 2]
    assert_invariants(state)


def test_two_choices_walkthrough():
    state = new_process(3, TWO_CHOICES)
    primaries = FixedStream([0, 0, 1])
    pool = FixedStream([1, 2, 0])

    first = step(state, primaries, pool)
    assert first.final_bin == 1 and first.decisions == ("accept",)
    assert first.secondary_pool_index is None

    second = step(state, primaries, pool)
    assert second.final_bin == 3 and second.decisions == ("reject",)
    assert second.secondary_pool_index == 1

    third = step(state, primaries, pool)
    assert third.final_bin == 2 and third.secondary_pool_index is None

    assert state.load.tolist() == [1, 1, 1]
    assert state.rejections == 1
    assert state.secondary_used.tolist() == [0, 0, 1]
    assert_invariants(state)


def test_run_is_deterministic():
    first = run(10, 10, ONE_CHOICE, seed=12345)
    second = run(10, 10, ONE_CHOICE, seed=12345)
    assert first.to_json() == second.to_json()
    assert first.final_state == second.final_state
    different = run(10, 10, ONE_CHOICE, seed=12346)
    assert different.to_json() != first.to_json()


def test_zero_balls():
    trace = run(4, 0, THRESHOLD_1, seed=9)
    assert trace.records == ()
    assert trace.final_state.load.tolist() == [0, 0, 0, 0]
    assert max_load(trace.final_state) == 0


def assert_paths_agree(n, t, spec, seed):
    """Vectorized and reference runs agree on every column and stream position."""
    runs = []
    for method in ("vectorized", "reference"):
        secondary = RngStream(mix_seeds(seed, 1))
        trace = run_with_streams(
            n, t, spec, RngStream(mix_seeds(seed, 0)), secondary, seed=seed, method=method
        )
        runs.append((trace, secondary))
    (fast, fast_secondary), (slow, slow_secondary) = runs
    assert np.array_equal(fast.primary_bins, slow.primary_bins)
    assert np.array_equal(fast.final_bins, slow.final_bins)
    assert np.array_equal(fast.reject_counts, slow.reject_counts)
    assert np.array_equal(fast.pool_indices, slow.pool_indices)
    assert fast.final_state == slow.final_state
    assert fast_secondary.draws == slow_secondary.draws
    assert fast_secondary.counter == slow_secondary.counter
    return fast, fast_secondary


@pytest.mark.parametrize(
    "spec",
    [THRESHOLD_1, StrategySpec("threshold", ell=3), ONE_CHOICE, ALWAYS_REJECT, TWO_CHOICES]
    + [
        StrategySpec("threshold", ell=ell, retry_budget=k)
        for k in (2, 3, 4)
        for ell in (1, 2, 4)
    ],
)
@pytest.mark.parametrize("seed", [0, 7, 424242])
def test_vectorized_matches_reference(spec, seed):
    assert_paths_agree(11, 60, spec, seed)


def test_retry_kernel_refills_the_pool_exactly():
    spec = StrategySpec("threshold", ell=1, retry_budget=4)
    trace, secondary = assert_paths_agree(3000, 9000, spec, seed=3)
    # More pool draws than rejected primaries: the first block ran out.
    assert secondary.draws > int((trace.reject_counts > 0).sum())


def test_retry_kernel_across_scan_segments(monkeypatch):
    # Short segments make balls straddle pool blocks and segment ends.
    monkeypatch.setattr(engine, "_RETRY_SEGMENT", 7)
    for ell, k in ((1, 4), (2, 2)):
        spec = StrategySpec("threshold", ell=ell, retry_budget=k)
        assert_paths_agree(3000, 9000, spec, seed=3)


def test_two_choices_kernel_across_blocks():
    trace, _ = assert_paths_agree(20_000, 300_000, TWO_CHOICES, seed=5)
    assert trace.t > 2 * engine._TWO_CHOICES_BLOCK


def test_vectorized_retry_consumes_no_extra_fixed_draws():
    spec = StrategySpec("threshold", ell=1, retry_budget=2)
    fast = run_with_streams(2, 3, spec, FixedStream([0, 0, 0]), FixedStream([0, 1, 1]),
                            method="vectorized")
    slow = run_with_streams(2, 3, spec, FixedStream([0, 0, 0]), FixedStream([0, 1, 1]))
    assert fast.records == slow.records
    assert fast.final_state == slow.final_state


@pytest.mark.parametrize(
    "spec",
    [
        THRESHOLD_1,
        StrategySpec("threshold", ell=2),
        StrategySpec("threshold", ell=2, retry_budget=3),
        ONE_CHOICE,
        ALWAYS_REJECT,
        TWO_CHOICES,
    ],
)
def test_run_summary_matches_full_run(spec):
    for seed in (1, 99):
        trace = run(37, 200, spec, seed=seed)
        loads, rejections = run_summary(37, 200, spec, seed=seed)
        assert np.array_equal(loads, trace.final_state.load)
        assert rejections == trace.final_state.rejections


@pytest.mark.parametrize(
    "strategy, n, t",
    [
        ("threshold:1", 1_000, 200_000),  # most balls rejected: a large pool
        ("threshold:auto", 200_000, 200_000),
        ("always-reject", 200_000, 200_000),
        ("two-choices", 20_000, 300_000),
    ],
)
def test_run_summary_matches_full_run_across_chunks(strategy, n, t):
    state = run(n, t, strategy, seed=8).final_state
    loads, rejections = run_summary(n, t, strategy, seed=8)
    assert np.array_equal(loads, state.load)
    assert rejections == state.rejections


def test_threshold_above_ball_count_equals_one_choice():
    relaxed = StrategySpec("threshold", ell=50)
    threshold_trace = run(6, 50, relaxed, seed=77)
    accept_trace = run(6, 50, ONE_CHOICE, seed=77)
    assert threshold_trace.records == accept_trace.records
    assert np.array_equal(threshold_trace.loads, accept_trace.loads)
    assert threshold_trace.final_state.rejections == 0


def test_pool_indices_are_consecutive_for_thinning():
    trace = run(5, 300, THRESHOLD_1, seed=3)
    consumed = trace.pool_indices[trace.pool_indices >= 0]
    assert consumed.tolist() == list(range(trace.final_state.rejections))


def test_streams_positioning_allows_resuming():
    spec = StrategySpec("threshold", ell=2)
    whole = run(8, 40, spec, seed=55, method="reference")
    state = new_process(8, spec)
    primary_stream = RngStream(mix_seeds(55, 0))
    secondary_stream = RngStream(mix_seeds(55, 1))
    for _ in range(25):
        step(state, primary_stream, secondary_stream)
    for _ in range(15):
        step(state, primary_stream, secondary_stream)
    assert state == whole.final_state


def test_json_round_trip():
    for spec in (THRESHOLD_1, TWO_CHOICES, StrategySpec("threshold", ell=2, retry_budget=2)):
        trace = run(7, 30, spec, seed=13)
        rebuilt = trace_from_json(trace.to_json())
        assert rebuilt.records == trace.records
        assert rebuilt.final_state == trace.final_state
        assert rebuilt.seed == trace.seed
        assert rebuilt.to_json() == trace.to_json()


def test_json_rejects_corruption():
    trace = run(4, 6, THRESHOLD_1, seed=2)
    text = trace.to_json()
    with pytest.raises(ConfigurationError):
        trace_from_json(text.replace('"loads": [', '"loads": [99, ', 1))
    with pytest.raises(ConfigurationError):
        trace_from_json("{not json")
    with pytest.raises(ConfigurationError):
        trace_from_json("{}")


def test_replay_reproduces_final_state():
    for spec in (THRESHOLD_1, ONE_CHOICE, ALWAYS_REJECT, TWO_CHOICES):
        trace = run(9, 80, spec, seed=31)
        assert replay(trace) == trace.final_state


def test_max_load_subset_and_errors():
    state = new_process(3, ONE_CHOICE)
    state.load = np.array([3, 1, 2], dtype=np.int64)
    state.t = 6
    assert max_load(state) == 3
    assert max_load(state, subset={2, 3}) == 2
    with pytest.raises(ConfigurationError):
        max_load(state, subset=set())
    with pytest.raises(ConfigurationError):
        max_load(state, subset={0, 1})
    with pytest.raises(ConfigurationError):
        max_load(state, subset={4})


def test_level_set_count_examples():
    state = new_process(3, ONE_CHOICE)
    state.load = np.array([2, 0, 1], dtype=np.int64)
    state.primary_suggested = np.array([5, 5, 0], dtype=np.int64)
    assert level_set_count(state, "load", 1, subset=[1, 2, 3]) == 2
    assert level_set_count(state, "primary_suggested", 6) == 0
    assert level_set_count(state, "secondary_used", 0, subset=[1, 2]) == 2
    with pytest.raises(ConfigurationError):
        level_set_count(state, "not_a_tally", 1)
    with pytest.raises(ConfigurationError):
        level_set_count(state, "load", -1)


def test_single_bin_runs():
    trace = run(1, 5, ONE_CHOICE, seed=0)
    assert trace.loads.tolist() == [5]
    trace = run(1, 5, ALWAYS_REJECT, seed=0)
    assert trace.loads.tolist() == [5]
    assert trace.final_state.rejections == 5


def test_method_validation():
    with pytest.raises(ConfigurationError):
        run(5, 5, THRESHOLD_1, seed=1, method="warp")
    retry = StrategySpec("threshold", ell=1, retry_budget=2)
    fast = run(5, 5, retry, seed=1, method="vectorized")
    assert fast.final_state == run(5, 5, retry, seed=1, method="reference").final_state
    with pytest.raises(ConfigurationError):
        run(5, -1, THRESHOLD_1, seed=1)
    with pytest.raises(ConfigurationError):
        run(5, 5, 12345, seed=1)


def test_run_accepts_grammar_strings():
    trace = run(100, 50, "threshold:auto", seed=4)
    assert trace.strategy.ell == 3  # resolved from the bin count
    trace = run(10, 5, "two-choices", seed=4)
    assert trace.strategy.kind == "two_choices_greedy"


@st.composite
def run_configs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    t = draw(st.integers(min_value=0, max_value=40))
    kind = draw(
        st.sampled_from(["threshold", "always_accept", "always_reject", "two_choices_greedy"])
    )
    if kind == "threshold":
        spec = StrategySpec(
            "threshold",
            ell=draw(st.integers(min_value=1, max_value=5)),
            retry_budget=draw(st.integers(min_value=1, max_value=3)),
        )
    else:
        spec = StrategySpec(kind)
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return n, t, spec, seed


@settings(max_examples=120, deadline=None)
@given(run_configs())
def test_run_properties(config):
    n, t, spec, seed = config
    trace = run(n, t, spec, seed=seed, method="reference")
    state = trace.final_state
    assert_invariants(state)
    assert replay(trace) == state
    loads, rejections = run_summary(n, t, spec, seed=seed)
    assert np.array_equal(loads, state.load)
    assert rejections == state.rejections
    fast = run(n, t, spec, seed=seed, method="vectorized")
    assert np.array_equal(fast.final_bins, trace.final_bins)
    assert fast.final_state == state
    consumed = trace.pool_indices[trace.pool_indices >= 0]
    assert np.all(np.diff(consumed) > 0) if consumed.size > 1 else True
    if spec.kind != "two_choices_greedy" and spec.retry_budget == 1:
        assert consumed.tolist() == list(range(state.rejections))


@pytest.mark.parametrize(
    "strategy, n, t",
    [
        ("one-choice", 20_000, 200_000),
        ("always-reject", 20_000, 200_000),
        ("threshold:auto", 200_000, 200_000),
        ("threshold:1", 10, 200_000),  # nearly every ball rejected
        ("threshold:4,k=2", 100_000, 100_000),
        ("threshold:1,k=3", 1_000, 30_000),  # nearly every ball retries
        ("two-choices", 200_000, 200_000),
        ("two-choices", 1_000, 100_000),
    ],
)
def test_summary_peak_within_estimate(strategy, n, t):
    spec = parse_strategy(strategy, n=n)
    run_summary(n, t, spec, 1)  # any lazy set-up happens outside the trace
    tracemalloc.start()
    try:
        run_summary(n, t, spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= summary_peak_bytes(n, t, spec)
