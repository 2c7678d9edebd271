"""Tests for the deterministic RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab.errors import ConfigurationError
from thinlab.rng import (
    _CHUNK,
    MASK64,
    FixedStream,
    RngStream,
    bounded_grid,
    fmix64,
    mix_seed_array,
    mix_seeds,
)

# Raw-word vectors computed by an independent C implementation of the
# published SplitMix64 algorithm (state += 0x9E3779B97F4A7C15, then the
# 30/27/31-shift avalanche finalizer).
REFERENCE_WORDS = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
        1961750202426094747,
        6038094601263162090,
    ],
    42: [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
        701532786141963250,
        16015981125662989062,
    ],
    81985529216486895: [
        1547611027431991965,
        15380727978956804243,
        3427440727199435966,
        11733030637320693740,
        90156556503711752,
        1494165161016773746,
    ],
}


@pytest.mark.parametrize("seed", sorted(REFERENCE_WORDS))
def test_raw_words_match_c_reference(seed):
    stream = RngStream(seed)
    words = [stream.next_u64() for _ in range(6)]
    assert words == REFERENCE_WORDS[seed]
    assert stream.counter == 6


def test_mix_seeds_is_the_output_stream():
    # Child seed i must equal raw word i of the parent stream.
    for seed in (0, 42, 81985529216486895):
        for i in range(6):
            assert mix_seeds(seed, i) == REFERENCE_WORDS[seed][i]


def test_mix_seeds_distinct_across_indices():
    children = {mix_seeds(12345, i) for i in range(1000)}
    assert len(children) == 1000


def test_bounded_draws_in_range_and_counted():
    stream = RngStream(7)
    values = [stream.next_bounded(10) for _ in range(1000)]
    assert all(0 <= v < 10 for v in values)
    assert stream.draws == 1000
    assert stream.counter >= 1000  # rejections can only add raw words


@pytest.mark.parametrize("n", [1, 2, 3, 10, 97, 2**32, 10**6, 2**63])
def test_block_matches_sequential(n):
    a, b = RngStream(99), RngStream(99)
    block = a.bounded_block(n, 257)
    seq = [b.next_bounded(n) for _ in range(257)]
    assert block.tolist() == seq
    assert (a.counter, a.draws) == (b.counter, b.draws)


def test_block_resumes_mid_stream():
    a, b = RngStream(5), RngStream(5)
    first = a.bounded_block(13, 100)
    second = a.bounded_block(13, 100)
    whole = b.bounded_block(13, 200)
    assert np.concatenate([first, second]).tolist() == whole.tolist()


# 3 * 2**61 rejects the top quarter of the raw words.
REJECTING_BOUND = 3 * 2**61


@pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
@pytest.mark.parametrize("n", [10**6, REJECTING_BOUND])
def test_block_matches_sequential_across_chunks(n, count):
    a, b = RngStream(11), RngStream(11)
    block = a.bounded_block(n, count)
    seq = [b.next_bounded(n) for _ in range(count)]
    assert block.tolist() == seq
    assert (a.counter, a.draws) == (b.counter, b.draws)
    if n == REJECTING_BOUND:
        assert a.counter > a.draws * 1.3  # about a third more words than draws


@pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
@pytest.mark.parametrize("n", [10**6, REJECTING_BOUND])
def test_block_into_a_buffer_matches_a_fresh_block(n, count):
    # bounded_chunks draws each chunk into one of two reused buffers.
    a, b = RngStream(11), RngStream(11)
    chunks, positions, buffers = [], [], []
    for chunk in a.bounded_chunks(n, count):
        assert chunk.dtype == np.int64 and len(chunk) <= _CHUNK
        chunks.append(chunk.copy())  # the next chunk overwrites this one
        positions.append((a.counter, a.draws))
        buffers.append(chunk.base)
    block = b.bounded_block(n, count)
    streamed = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    assert streamed.tolist() == block.tolist()
    assert (a.counter, a.draws) == (b.counter, b.draws)
    # Each chunk is counted by the time it is yielded.
    assert [draws for _, draws in positions] == np.cumsum([len(c) for c in chunks]).tolist()
    assert [counter for counter, _ in positions] == sorted(counter for counter, _ in positions)
    # Every chunk lives in one of the loop's two reused buffers.
    assert len({id(buffer) for buffer in buffers}) <= 2


# The reduction divides by a scalar, and numpy picks its division method by
# the divisor: 1 and powers of two take other branches than other bounds.
@pytest.mark.parametrize("n", [1, 2, 3, 2**32, 2**32 + 1, 2**63 - 1, 2**63])
def test_block_reduction_matches_sequential(n):
    a, b = RngStream(23), RngStream(23)
    block = a.bounded_block(n, _CHUNK + 1)
    seq = [b.next_bounded(n) for _ in range(_CHUNK + 1)]
    assert block.tolist() == seq
    assert (a.counter, a.draws) == (b.counter, b.draws)


@pytest.mark.parametrize("n", [97, REJECTING_BOUND])
def test_block_resumes_mid_chunk(n):
    a, b = RngStream(5), RngStream(5)
    a.bounded_block(n, 1000)
    for _ in range(1000):
        b.next_bounded(n)
    assert a.counter == b.counter > 0
    block = a.bounded_block(n, 2 * _CHUNK + 7)
    seq = [b.next_bounded(n) for _ in range(2 * _CHUNK + 7)]
    assert block.tolist() == seq
    assert (a.counter, a.draws) == (b.counter, b.draws)


@pytest.mark.parametrize("n, count", [(3, 3), (10**6, 200), (REJECTING_BOUND, 3),
                                      (REJECTING_BOUND, 40), (2**63, 5), (7, 0), (5, _CHUNK)])
def test_grid_rows_are_the_streams_blocks(n, count):
    seeds = [mix_seeds(17, i) for i in range(300 if count < 1000 else 3)]
    draws, exact = bounded_grid(mix_seed_array(seeds, 1), n, count)
    assert draws.shape == (len(seeds), count) and draws.dtype == np.int64
    for row, seed in enumerate(seeds):
        stream = RngStream(mix_seeds(seed, 1))
        block = stream.bounded_block(n, count)
        # A row is exact iff its stream read no more words than draws.
        assert exact[row] == (stream.counter == count)
        if exact[row]:
            assert draws[row].tolist() == block.tolist()
    if n == REJECTING_BOUND and count == 40:
        assert not exact.any()  # each row rejects a word: (3/4)**40 < 10**-5
    if n == REJECTING_BOUND and count == 3:
        assert 0 < exact.sum() < len(seeds)  # (3/4)**3 of the rows are exact


def test_grid_refuses_rows_longer_than_a_chunk():
    with pytest.raises(ConfigurationError):
        bounded_grid(mix_seed_array([1], 0), 3, _CHUNK + 1)


def test_mix_seed_array_is_mix_seeds():
    seeds = [0, 1, MASK64, -1, -(2**70), 2**64 + 5, np.int64(-3), np.uint64(MASK64)]
    for index in (0, 1, 7):
        mixed = mix_seed_array(seeds, index)
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [mix_seeds(int(seed), index) for seed in seeds]
    with pytest.raises(TypeError):
        mix_seed_array([1.5], 0)


def test_power_of_two_bound_has_no_rejection():
    stream = RngStream(3)
    stream.bounded_block(2**16, 500)
    assert stream.counter == 500


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=MASK64),
    n=st.integers(min_value=1, max_value=10**9),
    count=st.integers(min_value=0, max_value=400),
)
def test_block_equals_sequential_property(seed, n, count):
    a, b = RngStream(seed), RngStream(seed)
    block = a.bounded_block(n, count)
    seq = [b.next_bounded(n) for _ in range(count)]
    assert block.tolist() == seq
    assert a.counter == b.counter


def test_fmix64_is_bijective_on_sample():
    xs = list(range(0, 2**64, 2**64 // 4096))
    assert len({fmix64(x) for x in xs}) == len(xs)


def test_invalid_bounds_raise():
    stream = RngStream(0)
    with pytest.raises(ConfigurationError):
        stream.next_bounded(0)
    with pytest.raises(ConfigurationError):
        stream.bounded_block(-3, 5)
    with pytest.raises(ConfigurationError):
        stream.bounded_block(4, -1)
    with pytest.raises(ConfigurationError):
        stream.bounded_block(MASK64, 1)  # exceeds int64 index range
    for n, count in ((-3, 5), (4, -1), (MASK64, 1)):
        with pytest.raises(ConfigurationError):
            stream.bounded_chunks(n, count)  # raises before a chunk is asked for
    assert stream.counter == 0  # no bad call consumed a word
    assert 0 <= stream.next_bounded(MASK64) < MASK64  # sequential path is fine


def test_fixed_stream_replays_and_validates():
    stream = FixedStream([3, 0, 2])
    assert stream.next_bounded(4) == 3
    assert stream.bounded_block(4, 2).tolist() == [0, 2]
    with pytest.raises(ConfigurationError):
        stream.next_bounded(4)  # exhausted
    bad = FixedStream([5])
    with pytest.raises(ConfigurationError):
        bad.next_bounded(4)  # value out of range
