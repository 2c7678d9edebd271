"""Tests for the allocation engine: stepping, runs, traces, and accessors."""

import dataclasses
import hashlib
import json
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab import counting, engine, errors, rng, threshold, two_choices
from thinlab.engine import (
    AllocationRecord,
    Trace,
    level_set_count,
    max_load,
    new_process,
    replay,
    run,
    run_reference,
    run_summary,
    run_summary_batch,
    run_with_streams,
    step,
    summary_peak_bytes,
    trace_from_json,
    trace_peak_bytes,
)
from thinlab.errors import ConfigurationError, ResourceLimitError
from thinlab.rng import _CHUNK, FixedStream, RngStream, _seed_streams, mix_seeds
from thinlab.strategies import StrategySpec, parse_strategy
from thinlab.trace import _JSON_BYTES_PER_CHAR, _assembly_peak_bytes

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


def test_step_forces_the_landing_at_the_retry_budget():
    # Every pool draw is on a bin that already holds its primary, so
    # threshold:1 rejects each one and the third lands by force.
    state = new_process(3, "threshold:1,k=3")
    primaries, pool = FixedStream([0, 1, 0, 1]), FixedStream([1, 0, 1, 0, 1, 0])
    records = [step(state, primaries, pool) for _ in range(4)]
    forced = ("reject",) * 3
    assert records == [AllocationRecord(1, 1, ("accept",), 1, None),
                       AllocationRecord(2, 2, ("accept",), 2, None),
                       AllocationRecord(3, 1, forced, 2, 2),
                       AllocationRecord(4, 2, forced, 1, 5)]
    assert state.rejections == 6 and pool.draws == 6
    assert state.primary_suggested.tolist() == [2, 2, 0]
    assert state.secondary_used.tolist() == [1, 1, 0]
    assert_invariants(state)


def test_two_choices_ties_go_to_the_primary():
    # The candidate is the primary itself (balls 2 and 4), or another bin
    # of equal load (ball 3): each ball stays at its primary and still
    # consumes its pool draw.
    state = new_process(2, TWO_CHOICES)
    primaries, pool = FixedStream([0, 0, 1, 1]), FixedStream([1, 0, 0, 1])
    records = [step(state, primaries, pool) for _ in range(4)]
    assert records == [AllocationRecord(i, b, ("accept",), b, None)
                       for i, b in enumerate([1, 1, 2, 2], 1)]
    assert state.rejections == 0 and pool.draws == 4
    assert state.load.tolist() == [2, 2]
    assert_invariants(state)


# sha256 of stepping a fresh process with the seeded streams of each
# (n, t, seed) in STEPPED, in turn: each record's repr, then the final
# tallies and rejections, then both streams' counter and draws.  Recorded
# from the reference as it was before its return paths were merged into one.
STEPPED = [(1, 12, 0), (2, 20, 1), (9, 40, 2)]
STEP_DIGESTS = {
    "always-reject": "67f9a29faa4e22e08540114addc4bfdb58617114acfef844cb3709720a78072b",
    "one-choice": "202c6e41e81bebd8d48d48eea7b515e2b48acfd823944bb12a2fe9be3a7f21b4",
    "threshold:1": "ae3f7fc2b5b9b03d177d3754927c41e6b7453c386229ae617d07da418e77d838",
    "threshold:1,k=2": "1dff3ff9d370a70cedfc51f16651bceb4aab5d0295c730c6a1401edc72b960f0",
    "threshold:1,k=3": "215e97509db88d0521c3b78d27be2209565ebe20577a1530e64465b744da4ed0",
    "threshold:2": "30326fb711d5d94ba1106a9ae7c782326b9bc3f099149bb35cb0017c1f313ac0",
    "threshold:2,k=2": "85fb66c5f2ffefdd87e93e6adb5710bcad13223b4aff391ee80b68dd716eb3c1",
    "threshold:2,k=3": "9490f480ddda5bf3cd9d58c85e2ce1b36c63bdbdfd683aab09be43975cde6177",
    "threshold:auto": "b8ad0271688425cd83d6d1ef464367f5c342f316f46286aa9ebaa29a849c7877",
    "two-choices": "8760384ee9d4090fb4799be988054bcbf6a3d1fbf112e9ae1767c6f441db8cc2",
}


@pytest.mark.parametrize("strategy", sorted(STEP_DIGESTS))
def test_step_matches_its_recorded_digests(strategy):
    digest = hashlib.sha256()
    for n, t, seed in STEPPED:
        if strategy == "threshold:auto" and n < 3:
            continue  # the size-adapted level needs n >= 3
        state, streams = new_process(n, strategy), _seed_streams(seed)
        for _ in range(t):
            digest.update(repr(step(state, *streams)).encode())
        tallies = [getattr(state, name).tolist() for name in engine._TALLY_FIELDS]
        counters = [(stream.counter, stream.draws) for stream in streams]
        digest.update(repr((tallies, state.rejections, counters)).encode())
    assert digest.hexdigest() == STEP_DIGESTS[strategy]


def test_run_is_deterministic():
    first = run(10, 10, ONE_CHOICE, seed=12345)
    second = run(10, 10, ONE_CHOICE, seed=12345)
    assert first.to_json() == second.to_json()
    assert first.final_state == second.final_state
    different = run(10, 10, ONE_CHOICE, seed=12346)
    assert different.to_json() != first.to_json()


# run(4, 3, "threshold:1", seed=0).to_json() as the per-record serializer
# wrote it, before to_json was built from the columns.
PINNED_JSON = (
    '{"n": 4, "t": 3, "strategy": "threshold:1", "seed": 0, "records": ['
    '{"ball": 1, "primary": 4, "decision": ["accept"], "final": 4, "sec_idx": null}, '
    '{"ball": 2, "primary": 3, "decision": ["accept"], "final": 3, "sec_idx": null}, '
    '{"ball": 3, "primary": 4, "decision": ["reject"], "final": 1, "sec_idx": 0}], '
    '"loads": [1, 0, 1, 1]}'
)

# sha256 of to_json() per (strategy, n, t, seed), recorded with the same
# per-record serializer.
TO_JSON_DIGESTS = {
    ("one-choice", 7, 30, 1): "f92c9c58f090f5ebdb7d1c6dd6bc41dca178bf270d5268aa54f97723342714ea",
    ("always-reject", 7, 30, 2): "7762e925dc0b9e5c761dc6bb0c28fe049fed8b905e2210e5e110af8679ad675e",
    ("threshold:1", 5, 0, 0): "5dd9a68c652410481d6149811f193e5a68043ff0f5bb4ceb0792fb408cf6fdd3",
    ("threshold:2", 50, 400, 3): "1fc9286d318c1c3e8b99f06c00592049347a4708041a3a950d657f01faa8014e",
    ("threshold:auto", 1000, 5000, 8):
        "22c0d049e711317dbe519dfed2eb10883b56dcc5cf72eeb77c063191faf7337a",
    ("threshold:1,k=3", 20, 200, 4):
        "8417391a570b722ab32faff2ef31cb74b80cf63a16f187cbae5ce5c990e082ba",
    ("threshold:3,k=2", 100, 1000, 5):
        "c5515faebf31f7b8fd4f7d0ef4ddae0c8c4aaddce73d8caf80ba3604e006944f",
    ("two-choices", 30, 500, 6): "0ac38194b92dd7ef93b1c5164c8fb5dd7f5ff0d09ae0933c24d93011bff04ab2",
    ("two-choices", 4, 0, 9): "c78437e4c33c8f1919e4cab9d53719c112655f7173e898a9d3a723ee449b1c13",
    ("two-choices", 2000, 20000, 7):
        "6e642198e36ab0e0409ee929be62517081d0a743994718e96c5d88b63ff77f19",
}


def test_to_json_is_pinned():
    assert run(4, 3, "threshold:1", seed=0).to_json() == PINNED_JSON


@pytest.mark.parametrize("strategy, n, t, seed", sorted(TO_JSON_DIGESTS))
def test_to_json_digest_is_pinned(strategy, n, t, seed):
    text = run(n, t, strategy, seed).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == TO_JSON_DIGESTS[strategy, n, t, seed]


def test_zero_balls():
    trace = run(4, 0, THRESHOLD_1, seed=9)
    assert trace.records == ()
    assert trace.final_state.load.tolist() == [0, 0, 0, 0]
    assert max_load(trace.final_state) == 0
    with pytest.raises(ConfigurationError):
        run(5, -1, THRESHOLD_1, seed=1)


def assert_paths_agree(n, t, spec, seed):
    """Vectorized and reference runs agree on every column and stream position."""
    runs = []
    for runner in (run_with_streams, run_reference):
        secondary = RngStream(mix_seeds(seed, 1))
        trace = runner(n, t, spec, RngStream(mix_seeds(seed, 0)), secondary, seed=seed)
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


@pytest.mark.parametrize(
    "strategy, t",
    [("threshold:1,k=2", t) for t in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)]
    + [("threshold:2", 3 * _CHUNK + 5)],
)
def test_threshold_kernel_at_chunk_edges(strategy, t):
    # At n = 20000 every chunk after the first has balls rejected by bins
    # that reached ell in an earlier chunk and by bins that reach it in
    # this one.
    assert_paths_agree(20_000, t, parse_strategy(strategy), seed=17)


@pytest.mark.parametrize(
    "strategy, n, t",
    [
        ("threshold:300,k=2", 7, 70_000),  # ell > 255: counts past uint8
        ("threshold:1,k=3", 1, 300),
        ("threshold:2,k=2", 1, 300),
        ("threshold:2", 1, 300),
    ],
)
def test_threshold_kernel_at_extreme_sizes(strategy, n, t):
    spec = parse_strategy(strategy, n=n)
    trace, _ = assert_paths_agree(n, t, spec, seed=5)
    assert_kernel_loads(trace.final_state, spec, seed=5)


def assert_kernel_loads(state, spec, seed):
    """The threshold kernel's table holds the run's loads, in the dtype of
    t, once its last chunk is yielded."""
    streams = RngStream(mix_seeds(seed, 0)), RngStream(mix_seeds(seed, 1))
    for *_, loads in threshold._threshold_chunks(state.n, state.t, spec, *streams, True):
        pass
    assert loads.dtype == np.min_scalar_type(state.t)
    assert np.array_equal(loads, state.load)


THRESHOLD_CHUNK = threshold._THRESHOLD_CHUNK


def test_threshold_kernel_cut_at_the_first_and_last_ball_of_a_chunk():
    # ell = 2.  Bin 1's second primary is the last ball of the first chunk,
    # bin 0's the first ball of the second; every other primary goes to bin
    # 2, so nearly every ball is rejected and retries into the pool, whose
    # draws to bins 0 and 1 straddle both cuts.
    t = 2 * THRESHOLD_CHUNK
    primaries = [0, 1] + [2] * (THRESHOLD_CHUNK - 3) + [1, 0] + [2] * (THRESHOLD_CHUNK - 1)
    pool = RngStream(mix_seeds(9, 1)).bounded_block(3, 3 * t).tolist()
    spec = StrategySpec("threshold", ell=2, retry_budget=2)
    runs = []
    for runner in (run_with_streams, run_reference):
        streams = FixedStream(primaries), FixedStream(pool)
        trace = runner(3, t, spec, *streams)
        runs.append((trace, [stream.draws for stream in streams]))
    (fast, fast_draws), (slow, slow_draws) = runs
    assert fast_draws == slow_draws
    assert np.array_equal(fast.final_bins, slow.final_bins)
    assert np.array_equal(fast.reject_counts, slow.reject_counts)
    assert fast.final_state == slow.final_state
    # Pool draws to bins 0 and 1 were accepted before their cuts.
    assert (fast.reject_counts == 1).sum() > 0


def threshold_outcomes(n, t, spec, seed, runner=run_with_streams):
    """A run's columns, final state and both stream positions."""
    streams = RngStream(mix_seeds(seed, 0)), RngStream(mix_seeds(seed, 1))
    trace = runner(n, t, spec, *streams)
    columns = [c.tolist() for c in (trace.primary_bins, trace.final_bins, trace.reject_counts)]
    return columns, trace.final_state, [(stream.counter, stream.draws) for stream in streams]


def summary_outcome(n, t, spec, seed):
    """run_summary's loads, their dtype, and its rejections."""
    loads, rejections = run_summary(n, t, spec, seed)
    return loads.tolist(), loads.dtype, rejections


# Every retry budget above 1 and ell in {1, 2, 4} at each edge of one
# chunk, and a run of ten bins whose pool scan takes most of its time.  At
# n = 2000 most bins reach ell late in some 2**12-ball chunk while the next
# chunk's pool draws hit them, which only the reset of ``cut`` rejects.
@pytest.mark.parametrize(
    "strategy, n, t",
    [
        (f"threshold:{ell},k={k}", 2000, t)
        for k in (2, 3, 4)
        for ell in (1, 2, 4)
        for t in (0, 1, THRESHOLD_CHUNK, THRESHOLD_CHUNK + 1)
    ] + [("threshold:2,k=3", 10, 10**5)],
)
def test_threshold_chunk_size_changes_no_draw(monkeypatch, strategy, n, t):
    # Chunks are a memory knob only: at another size the kernel reads the
    # same draws, so columns, summaries and both stream positions are
    # unchanged.
    spec = parse_strategy(strategy, n=n)
    run_outcome = threshold_outcomes(n, t, spec, seed=31)
    summary = summary_outcome(n, t, spec, seed=31)
    state = run_outcome[1]
    assert summary == (state.load.tolist(), np.min_scalar_type(t), state.rejections)
    assert_kernel_loads(state, spec, seed=31)
    assert threshold_outcomes(n, t, spec, seed=31, runner=run_reference) == run_outcome
    for chunk in (1 << 12, 1 << 16):
        monkeypatch.setattr(threshold, "_THRESHOLD_CHUNK", chunk)
        assert threshold_outcomes(n, t, spec, seed=31) == run_outcome
        assert summary_outcome(n, t, spec, seed=31) == summary


def test_threshold_kernel_reads_exactly_the_fixed_draws_step_reads():
    # The pool holds exactly the draws the reference takes, so a kernel
    # that drew ahead of the balls still unlanded would exhaust it.
    n, t = 20_000, _CHUNK + 7
    spec = StrategySpec("threshold", ell=1, retry_budget=3)
    _, secondary = assert_paths_agree(n, t, spec, seed=4)
    primaries = RngStream(mix_seeds(4, 0)).bounded_block(n, t).tolist()
    pool = RngStream(mix_seeds(4, 1)).bounded_block(n, secondary.draws).tolist()
    runs = []
    for runner in (run_with_streams, run_reference):
        streams = FixedStream(primaries), FixedStream(pool)
        runs.append(runner(n, t, spec, *streams))
        assert [stream.draws for stream in streams] == [t, len(pool)]
    fast, slow = runs
    assert np.array_equal(fast.final_bins, slow.final_bins)
    assert fast.final_state == slow.final_state


def test_two_choices_kernel_across_blocks():
    trace, _ = assert_paths_agree(20_000, 300_000, TWO_CHOICES, seed=5)
    assert trace.t > 2 * two_choices._TWO_CHOICES_BLOCK


@pytest.mark.parametrize(
    "n, t", [(1, 300), (1, 5000), (2, 5000), (10, 20_000), (100, 20_000)]
)
def test_two_choices_kernel_when_balls_far_exceed_bins(n, t):
    # Nearly every ball shares a bin with an earlier ball of its block, so
    # the scalar tail places most of them; from t = 300 on it widens the
    # uint8 load table first.
    assert_paths_agree(n, t, TWO_CHOICES, seed=11)


def waiting_by_scan(bp, bs):
    """The balls of a block that share a bin with an earlier ball of it."""
    seen, waiting = set(), []
    for i, pair in enumerate(zip(bp, bs)):
        if seen.intersection(pair):
            waiting.append(i)
        seen.update(pair)
    return waiting


def waiting_balls(bp, bs, keys):
    """``two_choices._waiting_balls`` of one block, in ``keys``' dtype and width."""
    offsets = np.arange(keys.size // 2, dtype=keys.dtype)
    bp, bs = np.asarray(bp, dtype=np.int64), np.asarray(bs, dtype=np.int64)
    return two_choices._waiting_balls(bp, bs, keys, offsets).tolist()


# The widest bin of each key type at the kernel's 2**12-ball blocks: n =
# 2**20 is the last n of uint32 keys, and a run within the memory budget has
# n < 2**31.
BLOCK = 1 << 12
WIDEST = {np.uint32: 2**20 - 1, np.int64: 2**31 - 1}


@pytest.mark.parametrize(
    "bp, bs, waiting",
    [
        ([5, 9, 1], [5, 2, 3], []),  # a self-pair stays ready
        ([5, 1], [5, 5], [1]),  # a later ball repeats a self-pair's bin
        ([3, 7, 8], [4, 3, 4], [1, 2]),  # later candidates repeat bins
        ([1, 3, 4], [2, 4, 1], [2]),  # ball 2 repeats both its bins
        ([-1, 0], [0, -1], [1]),  # the widest bins (-1) of each key type
    ],
)
def test_waiting_balls_of_hand_built_blocks(bp, bs, waiting):
    assert two_choices._TWO_CHOICES_BLOCK == BLOCK
    assert two_choices._key_type(2**20) is np.uint32
    assert two_choices._key_type(2**20 + 1) is np.int64
    assert summary_peak_bytes(2**31, 1, TWO_CHOICES) > errors.MEMORY_BUDGET_BYTES
    assert 31 + (BLOCK - 1).bit_length() <= 63
    for dtype, widest in WIDEST.items():
        keys = np.full(2 * BLOCK, np.iinfo(dtype).max, dtype=dtype)
        bp_, bs_ = ([widest if b < 0 else b for b in bins] for bins in (bp, bs))
        assert waiting_balls(bp_, bs_, keys) == waiting == waiting_by_scan(bp_, bs_)


def test_waiting_balls_matches_a_scan():
    # Full blocks and short last ones, each behind another block's keys, in
    # every key type that holds the bins, with the widest bin in each block.
    rand = np.random.default_rng(7)
    for n in (1, 2, 50, 500, 10**6, 2**20, 2**20 + 1, 2**31):
        for dtype in {two_choices._key_type(n), np.int64}:
            keys = np.empty(2 * BLOCK, dtype=dtype)
            for length in (BLOCK, BLOCK - 1, 17, 1):
                bp, bs = rand.integers(0, n, size=(2, length))
                bp[-1] = bs[0] = n - 1
                expected = waiting_by_scan(bp.tolist(), bs.tolist())
                assert waiting_balls(bp, bs, keys) == expected


@pytest.mark.parametrize("n", [2**20, 2**20 + 1])
def test_two_choices_kernel_on_each_side_of_the_key_width(n):
    # The last n of uint32 keys and the first of int64 keys, over 3 blocks.
    assert_paths_agree(n, 3 * two_choices._TWO_CHOICES_BLOCK + 5, TWO_CHOICES, seed=29)


def test_benchmark_size_sorts_uint32_keys(monkeypatch):
    # The benchmark's two-choices run at n = 10**6 sorts 32-bit keys.
    real, dtypes = two_choices._waiting_balls, set()

    def spy(bp, bs, keys, offsets):
        dtypes.add((keys.dtype, offsets.dtype))
        return real(bp, bs, keys, offsets)

    monkeypatch.setattr(two_choices, "_waiting_balls", spy)
    run_summary(10**6, 10**6, TWO_CHOICES, 0)
    assert dtypes == {(np.dtype(np.uint32),) * 2}


def test_two_choices_kernel_widens_the_load_table():
    block = two_choices._TWO_CHOICES_BLOCK
    # One bin per ball of a block: every ball is ready, and the ready step
    # must widen before a bin passes load 255.
    tiled = np.tile(np.arange(block, dtype=np.int64), 300)
    # The tail raises bin 0 to exactly 255 without widening, so the next
    # block's ready step widens only if the running maximum counts the tail.
    tail_then_ready = np.arange(2 * block, dtype=np.int64) % block
    tail_then_ready[:255] = 0
    tail_then_ready[block] = 0
    # One bin: the tail places all balls but the first, past 255 and 65535.
    one_bin = np.zeros(70_000, dtype=np.int64)
    for n, bins in ((block, tiled), (block, tail_then_ready), (1, one_bin)):
        chunks = list(two_choices._two_choices_kernel(
            n, len(bins), FixedStream(bins.tolist()), FixedStream(bins.tolist()), True))
        moved = np.concatenate([balls for _, balls, _, _, _ in chunks])
        load = chunks[-1][4]
        assert not moved.size
        assert load.dtype == np.min_scalar_type(len(bins))
        assert np.array_equal(load[:n], np.bincount(bins, minlength=n))
    assert load[:n].tolist() == [70_000]
    # run_summary returns the kernel's table, widened to hold t.
    loads, rejections = run_summary(1, 300, TWO_CHOICES, 0)
    assert loads.dtype == np.min_scalar_type(300)
    assert loads.tolist() == [300] and rejections == 0


@pytest.mark.parametrize(
    "n, t, dtype",
    [
        # Past 255 blocks the bound on the loads reaches 255, so the kernel
        # reads the max, about 106, and keeps the uint8 table.
        (10_000, 1_100_000, np.uint8),
        # The bound reaches 255 with the max, which the kernel reads, so the
        # next ready step widens the table.
        (3000, 800_000, np.uint32),
    ],
)
def test_two_choices_summary_bounds_the_running_max(n, t, dtype):
    trace = run(n, t, TWO_CHOICES, 0)
    loads, rejections = run_summary(n, t, TWO_CHOICES, 0)
    assert loads.dtype == dtype
    assert np.array_equal(loads, trace.final_state.load)
    assert rejections == int(trace.reject_counts.sum())
    assert type(rejections) is int  # so that JSON output can hold it


TWO_CHOICES_CHUNK = two_choices._TWO_CHOICES_CHUNK


# The first chunk's edge, the fourth's, and a run of many chunks.
@pytest.mark.parametrize(
    "t",
    [TWO_CHOICES_CHUNK + d for d in (-1, 0, 1)]
    + [4 * TWO_CHOICES_CHUNK + d for d in (-1, 0, 1)]
    + [12 * TWO_CHOICES_CHUNK + 5],
)
def test_two_choices_kernel_at_chunk_edges(t):
    trace, secondary = assert_paths_agree(5_000, t, TWO_CHOICES, seed=17)
    assert secondary.draws == t


def test_two_choices_kernel_reads_exactly_t_fixed_draws():
    # The streams hold exactly t draws, so a kernel that drew ahead of the
    # chunk it places would exhaust them.
    n, t = 300, 4 * TWO_CHOICES_CHUNK + 7
    primaries = RngStream(mix_seeds(4, 0)).bounded_block(n, t).tolist()
    candidates = RngStream(mix_seeds(4, 1)).bounded_block(n, t).tolist()
    runs = []
    for runner in (run_with_streams, run_reference):
        streams = FixedStream(primaries), FixedStream(candidates)
        runs.append(runner(n, t, TWO_CHOICES, *streams))
        assert [stream.draws for stream in streams] == [t, t]
    fast, slow = runs
    assert np.array_equal(fast.final_bins, slow.final_bins)
    assert fast.final_state == slow.final_state


@pytest.mark.parametrize("chunk", [1 << 12, 1 << 16])
def test_two_choices_chunk_size_changes_no_draw(monkeypatch, chunk):
    # Chunks are a memory knob only: at another size the kernel reads the
    # same draws, so columns, loads and both stream positions are unchanged.
    assert_two_choices_size_changes_no_draw(monkeypatch, "_TWO_CHOICES_CHUNK", chunk)


@pytest.mark.parametrize("block", [1 << 11, 1 << 13])
def test_two_choices_block_size_changes_no_draw(monkeypatch, block):
    # The key width follows the block length when the kernel is called.
    assert_two_choices_size_changes_no_draw(monkeypatch, "_TWO_CHOICES_BLOCK", block)


def assert_two_choices_size_changes_no_draw(monkeypatch, name, size):
    n, t = 5_000, 3 * (1 << 16) + 4101

    def columns_and_positions():
        streams = RngStream(mix_seeds(23, 0)), RngStream(mix_seeds(23, 1))
        trace = run_with_streams(n, t, TWO_CHOICES, *streams)
        columns = (trace.primary_bins, trace.final_bins, trace.reject_counts)
        positions = [(stream.counter, stream.draws) for stream in streams]
        return columns, positions, run_summary(n, t, TWO_CHOICES, 23)

    expected = columns_and_positions()
    monkeypatch.setattr(two_choices, name, size)
    columns, positions, (loads, rejections) = columns_and_positions()
    assert all(np.array_equal(a, b) for a, b in zip(columns, expected[0]))
    assert positions == expected[1]
    assert positions[1][1] == t
    assert np.array_equal(loads, expected[2][0]) and rejections == expected[2][1]


# sha256 of run_summary's loads (little-endian int64) and rejection count at
# the benchmark's size, recorded before the two-choices kernel moved to a
# uint8 load table and a rejected mask.
BENCHMARK_SIZE_DIGESTS = {
    ("two-choices", 0): "f0a20653d0c1d63951e5b9084d953d717d93cb3fbd99f23762b8b9625ade5422",
    ("two-choices", 1): "2d9fff8f5d0857547b433ea61548d195b755c0784d6a5c4e14545fc18ad008c1",
    ("two-choices", 2): "af5a7ad77465fd40a5b1e1f0b0666c16edb833a3f4448b9a8abd6eaa97dd9ef4",
    ("threshold:auto", 0): "e25097175e5472504b49701cb6978b993808f91ed3bd8f9607b0674e59d4b7b6",
}


@pytest.mark.parametrize("strategy, seed", sorted(BENCHMARK_SIZE_DIGESTS))
def test_run_summary_is_pinned_at_benchmark_size(strategy, seed):
    loads, rejections = run_summary(10**6, 10**6, strategy, seed)
    digest = hashlib.sha256(np.ascontiguousarray(loads, dtype="<i8").tobytes())
    digest.update(str(rejections).encode())
    assert digest.hexdigest() == BENCHMARK_SIZE_DIGESTS[strategy, seed]


def occurrence_by_counting(values):
    seen = {}
    out = []
    for value in values:
        out.append(seen.get(value, 0))
        seen[value] = out[-1] + 1
    return out


@pytest.mark.parametrize(
    "n, t",
    [(5, 0), (5, 1), (1, 300), (7, 63), (7, 64), (7, 65), (1000, 1023), (1000, 1024),
     (1000, 1025), (2**40, 500)],
)
def test_occurrence_index_matches_counting(n, t):
    values = RngStream(mix_seeds(t, 2)).bounded_block(n, t)
    assert threshold._occurrence_index(values, n).tolist() == occurrence_by_counting(
        values.tolist())
    same = np.full(t, n - 1, dtype=np.int64)  # every value equal
    assert threshold._occurrence_index(same, n).tolist() == list(range(t))


def test_occurrence_index_refuses_keys_wider_than_63_bits():
    values = np.zeros(1000, dtype=np.int64)  # shift = 10 bits
    assert threshold._occurrence_index(values, 2**53).tolist() == list(range(1000))
    with pytest.raises(ResourceLimitError):
        threshold._occurrence_index(values, 2**53 + 1)


def test_vectorized_retry_consumes_no_extra_fixed_draws():
    spec = StrategySpec("threshold", ell=1, retry_budget=2)
    fast = run_with_streams(2, 3, spec, FixedStream([0, 0, 0]), FixedStream([0, 1, 1]))
    slow = run_reference(2, 3, spec, FixedStream([0, 0, 0]), FixedStream([0, 1, 1]))
    assert fast.records == slow.records
    assert fast.final_state == slow.final_state
    assert_paths_agree(5, 5, spec, seed=1)


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
        ("threshold:4,k=2", 1_000, 100_000),
    ],
)
def test_run_summary_matches_full_run_across_chunks(strategy, n, t):
    state = run(n, t, strategy, seed=8).final_state
    loads, rejections = run_summary(n, t, strategy, seed=8)
    assert np.array_equal(loads, state.load)
    assert rejections == state.rejections
    if parse_strategy(strategy, n=n).retry_budget > 1:
        # Counted into a table of the narrowest type that holds t.
        assert loads.dtype == np.min_scalar_type(t)


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
    whole = run_reference(8, 40, spec, *_seed_streams(55), seed=55)
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


@pytest.mark.parametrize(
    "edits",
    [{0: 999}, {0: "x"}, {0: True}, {0: 3.0}, {0: 2, 1: 1}, {3: 999, 5: "x"}],
)
def test_json_rejects_wrong_ball_numbers(edits):
    # A record's ball must be its 1-based position, as an int.
    payload = json.loads(run(5, 8, "threshold:1", seed=1).to_json())
    assert [row["ball"] for row in payload["records"]] == list(range(1, 9))
    for i, ball in edits.items():
        payload["records"][i]["ball"] = ball
    with pytest.raises(ConfigurationError):
        trace_from_json(json.dumps(payload))


def _first(records, rejected):
    return next(r for r in records if (r["sec_idx"] is not None) == rejected)


def _sec_idx_999(records):
    _first(records, True)["sec_idx"] = 999


def _three_rejects_then_accept(records):
    _first(records, False)["decision"] = ["reject", "reject", "reject", "accept"]


def _sec_idx_without_reject(records):
    _first(records, False)["sec_idx"] = 0


def _negative_sec_idx(records):
    _first(records, False)["sec_idx"] = -1


def _rejects_beyond_budget(records):
    _first(records, True)["decision"] = ["reject", "reject"]


def _moved_without_pool_draw(records):
    row = _first(records, False)
    row["final"] = 1 if row["final"] != 1 else 2


def _fractional_sec_idx(records):
    _first(records, True)["sec_idx"] += 0.5


def _accept_before_reject(records):
    row = next(r for r in records if r["decision"] == ["reject", "accept"])
    row["decision"] = ["accept", "reject"]


def _two_choices_sec_idx_by_rank(records):
    # The thinning numbering (running reject total) is wrong for two-choices.
    rejected = [r for r in records if r["sec_idx"] is not None]
    row = next(r for k, r in enumerate(rejected) if r["ball"] - 1 != k)
    row["sec_idx"] = rejected.index(row)


@pytest.mark.parametrize(
    "strategy, edit",
    [
        ("threshold:1", _sec_idx_999),
        ("threshold:1", _three_rejects_then_accept),
        ("threshold:1", _sec_idx_without_reject),
        ("threshold:1", _negative_sec_idx),
        ("threshold:1", _rejects_beyond_budget),
        ("threshold:1", _moved_without_pool_draw),
        ("threshold:1", _fractional_sec_idx),
        ("threshold:1,k=2", _accept_before_reject),
        ("threshold:1,k=2", _sec_idx_999),
        ("two-choices", _two_choices_sec_idx_by_rank),
        ("two-choices", _rejects_beyond_budget),
    ],
)
def test_json_rejects_impossible_records(strategy, edit):
    # The loads are recounted from the edited records, so they still agree:
    # only the decision, sec_idx and landing checks can catch an edit.
    payload = json.loads(run(20, 40, strategy, seed=3).to_json())
    edit(payload["records"])
    finals = [row["final"] - 1 for row in payload["records"]]
    payload["loads"] = np.bincount(finals, minlength=20).tolist()
    with pytest.raises(ConfigurationError):
        trace_from_json(json.dumps(payload))


def test_replay_rejects_impossible_columns():
    trace = run(20, 40, THRESHOLD_1, seed=3)
    moved = trace.final_bins.copy()
    accepted = np.flatnonzero(trace.reject_counts == 0)[0]
    moved[accepted] = (moved[accepted] + 1) % trace.n
    with pytest.raises(ConfigurationError, match="without a pool draw"):
        replay(dataclasses.replace(trace, final_bins=moved))
    over = trace.reject_counts * 2
    with pytest.raises(ConfigurationError):
        replay(dataclasses.replace(trace, reject_counts=over))


def test_replay_reproduces_final_state():
    for spec in (THRESHOLD_1, ONE_CHOICE, ALWAYS_REJECT, TWO_CHOICES):
        trace = run(9, 80, spec, seed=31)
        assert replay(trace) == trace.final_state


@pytest.mark.parametrize("strategy", ["one-choice", "always-reject", "threshold:1",
                                      "threshold:auto", "threshold:1,k=3", "two-choices"])
def test_secondary_used_is_derived_from_the_stored_tallies(strategy):
    assert "secondary_used" not in {f.name for f in dataclasses.fields(engine.ProcessState)}
    trace = run(9, 80, strategy, seed=31)
    pooled = np.bincount(trace.final_bins[trace.reject_counts > 0], minlength=9)
    states = (trace.final_state, replay(trace), trace_from_json(trace.to_json()).final_state,
              run_reference(9, 80, strategy, *_seed_streams(31)).final_state)
    for state in states:
        assert np.array_equal(state.secondary_used, state.load - state.primary_accepted)
        assert np.array_equal(state.secondary_used, pooled)
        assert state.secondary_used.min() >= 0
        with pytest.raises(AttributeError):
            state.secondary_used = pooled


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
    # A bin past int64 is checked as an int, before an int64 array holds it.
    with pytest.raises(ConfigurationError, match="within 1..3"):
        max_load(state, subset=[2**63])
    with pytest.raises(ConfigurationError, match="within 1..3"):
        level_set_count(state, "load", 1, subset=[2**64])


@pytest.mark.parametrize("t", [2**64, 10**30])
def test_ball_counts_no_load_table_holds_are_refused(t):
    # From 2**64 balls np.min_scalar_type gives object, so no table holds them.
    entries = (
        lambda: run(3, t, "two-choices", 0),
        lambda: run_summary(3, t, "threshold:1,k=2", 0),
        lambda: run_summary_batch(3, t, "one-choice", [0, 1]),
        lambda: run_with_streams(3, t, "one-choice", *_seed_streams(0)),
        lambda: run_reference(3, t, "one-choice", *_seed_streams(0)),
    )
    for entry in entries:
        with pytest.raises(ConfigurationError, match="ball count must be below 2\\*\\*64"):
            entry()
    assert engine._ball_count(2**64 - 1) == 2**64 - 1


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


def test_run_accepts_grammar_strings():
    trace = run(100, 50, "threshold:auto", seed=4)
    assert trace.strategy.ell == 3  # resolved from the bin count
    trace = run(10, 5, "two-choices", seed=4)
    assert trace.strategy.kind == "two_choices_greedy"
    with pytest.raises(ConfigurationError):
        run(5, 5, 12345, seed=1)


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
    trace = run_reference(n, t, spec, *_seed_streams(seed), seed=seed)
    state = trace.final_state
    assert_invariants(state)
    assert replay(trace) == state
    loads, rejections = run_summary(n, t, spec, seed=seed)
    assert np.array_equal(loads, state.load)
    assert rejections == state.rejections
    fast = run(n, t, spec, seed=seed)
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
        ("two-choices", 10, 100_000),  # the scalar tail places most balls
        ("two-choices", 1_000, 8192),  # the kernel's block temporaries bind
        ("two-choices", 200_000, 1_000_000),  # many chunks: their draws bind
        # A bound that divides 2**64 rejects no word, so the draw term is
        # exact; a quarter of each block's balls wait, but no load reaches
        # 256, so the table stays uint8.
        ("two-choices", 2**17, 2**18),
        ("two-choices", 2**17, 100_000),  # a shorter last chunk
        # A bin passes 255, so the counting kinds count again into a wide
        # table (threshold:1 at n = 10 above does too).
        ("one-choice", 10, 200_000),
        ("always-reject", 1_000, 300_000),
        ("threshold:2", 1_000, 300_000),
        ("one-choice", 20_000, 5_000_000),  # the uint8 table is freed first
        # Grids of _CHUNK // max(n, t) runs: their term binds for batches.
        ("threshold:1", 3, 3),
        ("one-choice", 4, 4),
        ("always-reject", 5, 7),
        ("threshold:2", 1, 300),
        ("threshold:1", 3_000, 3_000),
        ("one-choice", 20_000, 3),
        ("threshold:auto", _CHUNK // 2, _CHUNK // 2),
        ("threshold:1", 10**6, 10),  # capping a slice of the table binds
    ],
)
def test_summary_peak_within_estimate(strategy, n, t):
    spec = parse_strategy(strategy, n=n)
    run_summary(n, t, spec, 1)  # any lazy set-up happens outside the trace
    peak = traced_peak(lambda: run_summary(n, t, spec, 1))
    estimate = summary_peak_bytes(n, t, spec)
    assert peak <= estimate
    # No term is padded beyond the wide table of a recount.  k > 1 estimates
    # assume every ball is rejected, so hold them to it where nearly every
    # ball is.
    if t >= (100_000 if spec.retry_budget == 1 else 10 * n):
        assert estimate <= 1.5 * peak
    # A batch holds one table, or one grid of runs, at a time: here two full
    # grids and a partial one, or two runs one after the other.
    counts = counting._counts_draws(spec)
    rows = counting._grid_rows(n, t) if counts else 1
    seeds = range(2 * rows + 1 if rows >= 2 else 2)
    batch = traced_peak(lambda: deque(run_summary_batch(n, t, spec, seeds), maxlen=0))
    assert batch <= estimate
    # The k > 1 estimates count every ball as rejected, so only the counting
    # kinds are held to the batch's peak.
    if counts and (rows >= 2 or t >= 100_000):
        assert estimate <= 1.5 * batch


@pytest.mark.parametrize(
    "strategy, n, table_bytes, chunk, chunk_bytes",
    [
        # The uint8 load table; a chunk's bins and took mask beside its draw
        # buffers, and the uint32 key buffer (8 bytes per block ball: 2 per
        # chunk ball).
        ("two-choices", 10**6, 1, TWO_CHOICES_CHUNK, 35),
        # count and the landings (uint32) and cut (uint16); few balls are
        # rejected, so a chunk's primaries beside its draw buffers bind
        # (25 bytes per ball, and 3.8 KB of Python objects).  This is the
        # benchmark's size: seven chunks.
        ("threshold:4,k=2", 10**5, 10, THRESHOLD_CHUNK, 25),
    ],
)
def test_summary_holds_one_chunk(strategy, n, table_bytes, chunk, chunk_bytes):
    # Beside its per-bin tables a summary holds one chunk and at most 32 KiB
    # of Python objects: a chunk already yielded is gone, in the kernel and
    # in run_summary, before the next is drawn.  A batch holds one run's
    # tables: they are gone before the next run draws.
    spec = parse_strategy(strategy, n=n)
    run_summary(n, n, spec, 1)  # any lazy set-up happens outside the trace
    peaks = [
        traced_peak(lambda: run_summary(n, n, spec, 1)),
        traced_peak(lambda: deque(run_summary_batch(n, n, spec, [1, 2]), maxlen=0)),
    ]
    for peak in peaks:
        assert peak <= table_bytes * n + chunk_bytes * chunk + 32 * 1024
        assert peak <= summary_peak_bytes(n, n, spec)


def traced_peak(func) -> int:
    """Peak bytes that tracemalloc sees while ``func`` runs."""
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The run_summary branches that count draws chunk by chunk.  At n = 1000,
# threshold:1 rejects most balls, so its pool is nearly as long as its
# primaries.
COUNTING_KINDS = ["one-choice", "always-reject", "threshold:1", "threshold:auto"]


@pytest.mark.parametrize("strategy", COUNTING_KINDS)
def test_counting_kinds_hold_no_draw_block(strategy):
    n, t = 1000, 300_000
    spec = parse_strategy(strategy, n=n)
    run_summary(n, t, spec, 1)  # any lazy set-up happens outside the trace
    peak = traced_peak(lambda: run_summary(n, t, spec, 2))
    # Less than one t-word block: only the table (which widens at n = 1000)
    # and one stream's chunk buffers.
    assert peak < 8 * t
    assert peak <= summary_peak_bytes(n, t, spec)


@pytest.mark.parametrize("n, t", [(1, 300), (2, 10_000), (3, 70_000)])
@pytest.mark.parametrize(
    "strategy", ["one-choice", "always-reject", "threshold:1", "threshold:2", "threshold:300"])
def test_counting_kinds_recount_past_255(strategy, n, t):
    # Some bin passes 255, so the uint8 table wraps and the run is counted
    # again into a table of min_scalar_type(t); at n = 1 threshold:300
    # wraps in its primaries before any cap.
    state = run(n, t, strategy, seed=3).final_state
    loads, rejections = run_summary(n, t, strategy, seed=3)
    assert loads.dtype == np.min_scalar_type(t)
    assert np.array_equal(loads, state.load)
    assert rejections == state.rejections


class ChunkedFixedStream(FixedStream):
    """Preset draws in the one chunk the counting kernel reads them in."""

    def bounded_chunks(self, n, count):
        yield self.bounded_block(n, count)


@pytest.mark.parametrize(
    "strategy, primaries, pool",
    [
        # Only the pool passes 255: each bin keeps one of its 150 primaries,
        # and all 298 rejected balls land on bin 0.
        ("threshold:1", [0, 1] * 150, [0] * 298),
        # The primaries of bin 0 wrap to 1, below ell = 3, so the cap keeps
        # too few of them and takes too few rejections; the table's sum is
        # then short of t by the wrap, whatever the pool adds.
        ("threshold:3", [0] * 257 + [1] * 43, [0, 1] * 150),
        ("one-choice", [1] * 300, []),
        ("always-reject", [0] * 300, [1] * 299 + [0]),  # primaries unread
    ],
)
def test_counting_kernel_recounts_a_wrapped_table(strategy, primaries, pool):
    n, t = 2, 300
    spec = parse_strategy(strategy, n=n)
    passes = []

    def streams():
        passes.append((ChunkedFixedStream(primaries), ChunkedFixedStream(pool)))
        return passes[-1]

    loads, rejections = next(counting._count_runs(n, t, spec, [streams]))
    reference = run_reference(n, t, spec, FixedStream(primaries), FixedStream(pool))
    assert loads.dtype == np.min_scalar_type(t)
    assert loads.tolist() == reference.final_state.load.tolist()
    assert rejections == reference.final_state.rejections
    # One uint8 pass that wrapped, then one wide pass.
    assert len(passes) == 2


def test_counting_kernel_frees_the_uint8_table_before_the_wide_one():
    # With 2 * 10**6 bins the tables outweigh the chunk buffers, so the
    # estimate holds only if the wrapped uint8 table is gone before the
    # uint16 one is allocated.
    n, t = 2 * 10**6, 300
    bins = [0] * t

    def streams():
        return ChunkedFixedStream(bins), ChunkedFixedStream([])

    counted = []

    def count():
        counted.extend(next(counting._count_runs(n, t, ONE_CHOICE, [streams])))

    peak = traced_peak(count)
    loads, _ = counted
    assert loads.dtype == np.uint16 and int(loads[0]) == t
    assert peak <= summary_peak_bytes(n, t, ONE_CHOICE)


def per_trial_summaries(n, t, strategy, seeds):
    """(max load, rejections) of one run_summary call per seed."""
    out = []
    for seed in seeds:
        loads, rejections = run_summary(n, t, strategy, seed)
        out.append((int(loads.max()), rejections))
    return out


def traced_summaries(n, t, strategy, seeds):
    """(max load, rejections) of one full run per seed."""
    states = (run(n, t, strategy, seed).final_state for seed in seeds)
    return [(int(state.load.max()), state.rejections) for state in states]


# Grids of _CHUNK // max(n, t) runs, so 2 * 10**4 seeds fill more than one
# grid, the last one partly; run_summary counts each run into a table.
@pytest.mark.parametrize(
    "strategy, n, t", [("one-choice", 4, 4), ("always-reject", 5, 7), ("threshold:1", 3, 5)])
def test_batch_matches_run_summary_on_small_runs(strategy, n, t):
    seeds = [mix_seeds(41, i) for i in range(20_000)]
    assert 2 <= counting._grid_rows(n, t) < len(seeds)
    batch = list(run_summary_batch(n, t, strategy, seeds))
    assert batch == per_trial_summaries(n, t, strategy, seeds)


@pytest.mark.parametrize("strategy", ["one-choice", "always-reject", "threshold:auto"])
def test_batch_matches_run_summary_at_benchmark_size(strategy):
    # One table serves every run of the batch.
    n = t = 10**6
    seeds = [mix_seeds(5, i) for i in range(20)]
    batch = list(run_summary_batch(n, t, strategy, seeds))
    assert batch == per_trial_summaries(n, t, strategy, seeds)


def test_batch_counts_again_the_runs_that_read_a_rejected_word(monkeypatch):
    # Every bound gets the rejection limit of 3 * 2**61, which rejects a
    # quarter of the raw words, so most grid runs read a rejected word and
    # are counted again from their streams; run's kernel draws through the
    # same limit.
    monkeypatch.setattr(rng, "_rejection_limit", lambda n, count: np.uint64(3 << 62))
    n, t = 3, 5
    seeds = range(400)
    exact = rng.bounded_grid(rng.mix_seed_array(seeds, 0), n, t)[1]
    assert 0 < exact.sum() < len(seeds) / 2
    for strategy in ("one-choice", "always-reject", "threshold:1"):
        batch = list(run_summary_batch(n, t, strategy, seeds))
        assert batch == traced_summaries(n, t, strategy, seeds)


# At n = 1 a grid holds loads above 255.  At (3, 70000) the first run wraps
# the uint8 table, and the batch's later runs are counted in the wide one.
@pytest.mark.parametrize("n, t", [(1, 300), (3, 70_000)])
@pytest.mark.parametrize("strategy", ["one-choice", "always-reject", "threshold:2"])
def test_batch_counts_bins_past_255(strategy, n, t):
    seeds = [mix_seeds(3, i) for i in range(4)]
    batch = list(run_summary_batch(n, t, strategy, seeds))
    assert batch == traced_summaries(n, t, strategy, seeds)
    assert min(maximum for maximum, _ in batch) > 255


@pytest.mark.parametrize("n, t", [(1, 600), (2, 70_000)])  # a grid, then one table
def test_batch_caps_above_255(n, t):
    seeds = [mix_seeds(6, i) for i in range(4)]
    batch = list(run_summary_batch(n, t, "threshold:300", seeds))
    assert batch == traced_summaries(n, t, "threshold:300", seeds)
    assert all(rejections > 0 for _, rejections in batch)


@pytest.mark.parametrize("n", [1, 5, _CHUNK])  # grids, then one table
def test_batch_of_zero_balls(n):
    for strategy in ("one-choice", "always-reject", "threshold:1", "threshold:3"):
        assert list(run_summary_batch(n, 0, strategy, range(5))) == [(0, 0)] * 5


# Either side of the regime boundary: grids of two runs (the last of the
# five seeds alone in its grid), then one table for the batch.  A level
# above t and above the uint16 loads binds no ball, with either budget.
@pytest.mark.parametrize("size", [_CHUNK // 2, _CHUNK // 2 + 1])
def test_batch_across_the_regime_boundary(size):
    seeds = [mix_seeds(8, i) for i in range(5)]
    for strategy in ("one-choice", "always-reject", "threshold:auto", "threshold:100000",
                     "threshold:100000,k=2"):
        batch = list(run_summary_batch(size, size, strategy, seeds))
        assert batch == traced_summaries(size, size, strategy, seeds)


# One run per group.  At (1, 300) the two-choices load table widens; at
# (3, 70000) nearly every threshold ball retries.
@pytest.mark.parametrize("n, t", [(8, 8), (1, 300), (3, 70_000)])
@pytest.mark.parametrize("strategy", ["two-choices", "threshold:2,k=2", "threshold:1,k=3"])
def test_batch_matches_full_runs_of_the_other_strategies(strategy, n, t):
    seeds = [mix_seeds(9, i) for i in range(3)]
    batch = list(run_summary_batch(n, t, strategy, seeds))
    assert batch == traced_summaries(n, t, strategy, seeds)


# _assemble_trace binds at (200000, 200000) and (10**6, 10**6) with its three
# tallies, and at (20000, 300000) with its gather of the never-rejected balls
# where a rule accepts most balls; where a rule rejects most, the kernel beside
# the three columns of _columns binds, as it does at n = 1000:
# threshold:1,k=2 rejects nearly every ball, so its retry scan binds; it is
# not run at the larger sizes, where tracemalloc makes its per-ball scan
# take seconds.
@pytest.mark.parametrize(
    "strategy, n, t",
    [
        (strategy, n, t)
        for n, t in ((20_000, 300_000), (200_000, 200_000))
        for strategy in ("one-choice", "always-reject", "threshold:auto", "threshold:1",
                         "threshold:20,k=2", "two-choices")
    ] + [("threshold:1,k=2", 1_000, 50_000), ("threshold:1", 1_000, 30_000),
         ("threshold:auto", 10**6, 10**6)],
)
def test_trace_peak_within_estimate(strategy, n, t):
    spec = parse_strategy(strategy, n=n)
    run(n, t, spec, 1)  # any lazy set-up happens outside the trace
    peak = traced_peak(lambda: run(n, t, spec, 1))
    estimate = trace_peak_bytes(n, t, spec)
    assert peak <= estimate
    # k > 1 estimates assume every ball is rejected, so hold them to it where
    # nearly every ball is; their Python lists are counted per ball.
    if spec.retry_budget == 1:
        assert estimate <= 1.1 * peak
    elif t >= 10 * n:
        assert estimate <= 1.15 * peak


# The reference steps every kind alike.  At (200000, 20000) the assembly
# beside the stepped state binds, at (10, 20000) the pool-index check; each
# steps for about a second under tracemalloc.
@pytest.mark.parametrize("n, t", [(200_000, 20_000), (10, 20_000)])
@pytest.mark.parametrize("strategy", ["threshold:auto", "two-choices"])
def test_reference_peak_within_estimate(monkeypatch, strategy, n, t):
    spec = parse_strategy(strategy, n=n)
    run_reference(n, 10, spec, *_seed_streams(1))  # any lazy set-up happens outside the trace
    peak = traced_peak(lambda: run_reference(n, t, spec, *_seed_streams(1)))
    estimate = engine._reference_peak_bytes(n, t, spec)
    assert peak <= estimate <= 1.1 * peak
    # It is the bound run_reference is guarded by.
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", estimate - 1)
    with pytest.raises(ResourceLimitError, match=f"needs about {estimate} bytes"):
        run_reference(n, t, spec, *_seed_streams(1))


# Ball-heavy payloads and a bin-heavy one, whose lists of loads bind.
@pytest.mark.parametrize(
    "strategy, n, t",
    [("threshold:auto", 20_000, 20_000), ("always-reject", 10, 20_000),
     ("two-choices", 5_000, 20_000), ("one-choice", 100_000, 10)],
)
def test_trace_from_json_peak_within_estimate(strategy, n, t):
    text = run(n, t, strategy, 1).to_json()
    trace_from_json(text)  # any lazy set-up happens outside the trace
    peak = traced_peak(lambda: trace_from_json(text))
    estimate = _JSON_BYTES_PER_CHAR * len(text) + _assembly_peak_bytes(n, t)
    assert peak <= estimate <= 1.5 * peak


def test_trace_from_json_refuses_a_payload_beyond_the_memory_budget(monkeypatch):
    def no_parse(*args, **kwargs):
        raise AssertionError("trace_from_json parsed a payload it should have refused")

    text = run(50, 200, "threshold:1", seed=3).to_json()
    parse = _JSON_BYTES_PER_CHAR * len(text)
    with monkeypatch.context() as patch:
        patch.setattr(errors, "MEMORY_BUDGET_BYTES", parse - 1)
        patch.setattr(json, "loads", no_parse)
        with pytest.raises(ResourceLimitError, match=f"payload of {len(text)} characters"):
            trace_from_json(text)
    # The parse fits, but not beside the trace it describes.
    needed = parse + _assembly_peak_bytes(50, 200)
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", needed - 1)
    with pytest.raises(ResourceLimitError):
        trace_from_json(text)
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", needed)
    assert trace_from_json(text).final_state == run(50, 200, "threshold:1", seed=3).final_state


def test_run_refuses_a_trace_beyond_the_memory_budget(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run drew a trace it should have refused")

    for path in ("_columns", "step"):
        monkeypatch.setattr(engine, path, no_run)
    with pytest.raises(ResourceLimitError, match="a trace of 1000000000 balls"):
        run(10**9, 10**9, ONE_CHOICE, seed=0)
    with pytest.raises(ResourceLimitError, match="a trace of 1000000000 balls"):
        run_reference(10**9, 10**9, ONE_CHOICE, *_seed_streams(0), seed=0)
    assert trace_peak_bytes(10**9, 10**9, ONE_CHOICE) > errors.MEMORY_BUDGET_BYTES


@pytest.mark.parametrize("runner", [run_with_streams, run_reference], ids=["kernel", "reference"])
def test_run_with_streams_refuses_a_trace_beyond_the_memory_budget(monkeypatch, runner):
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", 2**20)
    primary, secondary = RngStream(1), RngStream(2)
    with pytest.raises(ResourceLimitError, match="a trace of 1000000 balls"):
        runner(10**6, 10**6, "one-choice", primary, secondary)
    assert (primary.counter, secondary.counter) == (0, 0)


def test_run_with_streams_always_runs_the_kernel(monkeypatch):
    calls = []
    columns = engine._columns

    def spy(n, t, *args):
        calls.append((n, t))
        return columns(n, t, *args)

    def no_step(*args):
        raise AssertionError("run_with_streams stepped a ball")

    monkeypatch.setattr(engine, "_columns", spy)
    monkeypatch.setattr(engine, "step", no_step)
    trace = run_with_streams(10**5, 10**5, "threshold:auto", RngStream(1), RngStream(2))
    assert calls == [(10**5, 10**5)]
    assert trace.final_state.t == 10**5


# sha256 of run_reference(n, 40, strategy, *fixed, seed=8).to_json() and the
# draws each fixed stream gave, where the fixed streams hold the first 40 and
# 80 draws below n of seed 8's streams; recorded from the stepping path
# before it was its own runner.
FIXED_REFERENCE = {
    ("threshold:1,k=2", 3):
        ("67dc755d51988eb7b9d52b349a4b148c6f4d5c46e57f62f04915e9c52eb9fb0a", [40, 74]),
    ("threshold:2", 4):
        ("d150de41957d703ca534904e585579d25078ceae9ad734b2ca3afa85bb545bd1", [40, 32]),
    ("two-choices", 5):
        ("02494e8f18e8d278a05c0702643fc65a7b5a95410b2a73f84aef25d85424903a", [40, 40]),
    ("always-reject", 3):
        ("46b516c4df9521c931d9d199300aefed58fa43e44ee774552929384f99925964", [40, 40]),
    ("one-choice", 3):
        ("20a78c66b0c58d694b9f7cc80464c7b18db02517e9acc4da9637550f5c96904e", [40, 0]),
}


@pytest.mark.parametrize("strategy, n", sorted(FIXED_REFERENCE))
@pytest.mark.parametrize("runner", [run_with_streams, run_reference], ids=["kernel", "reference"])
def test_fixed_stream_runs_are_pinned(strategy, n, runner):
    primaries = RngStream(mix_seeds(8, 0)).bounded_block(n, 40).tolist()
    pool = RngStream(mix_seeds(8, 1)).bounded_block(n, 80).tolist()
    streams = FixedStream(primaries), FixedStream(pool)
    trace = runner(n, 40, strategy, *streams, seed=8)
    digest = hashlib.sha256(trace.to_json().encode()).hexdigest()
    assert (digest, [stream.draws for stream in streams]) == FIXED_REFERENCE[strategy, n]


@pytest.mark.parametrize(
    "strategy",
    ["one-choice", "always-reject", "threshold:1", "threshold:auto", "threshold:4,k=2",
     "two-choices"],
)
def test_summaries_refuse_runs_beyond_the_memory_budget(monkeypatch, strategy):
    def no_run(*args, **kwargs):
        raise AssertionError("a summary ran that it should have refused")

    for kernel in ("_summary_groups", "_count_groups", "_summaries", "_two_choices_kernel",
                   "_threshold_chunks"):
        monkeypatch.setattr(engine, kernel, no_run)
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", 2**20)
    spec = parse_strategy(strategy, n=10**6)
    assert summary_peak_bytes(10**6, 10**6, spec) > 2**20
    with pytest.raises(ResourceLimitError, match="a summary of 1000000 balls"):
        run_summary(10**6, 10**6, spec, 1)
    with pytest.raises(ResourceLimitError, match="a summary of 1000000 balls"):
        run_summary_batch(10**6, 10**6, spec, [1, 2])
