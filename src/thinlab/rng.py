"""Deterministic 64-bit random streams used by every allocation run.

The generator is SplitMix64 (Vigna's public-domain reference): the state
advances by a fixed odd increment and each output is an avalanche finalizer
of the state, so the raw word stream for seed ``s`` is

    raw[j] = fmix64((s + (j + 1) * GAMMA) mod 2**64),   j = 0, 1, 2, ...

Because the state is an arithmetic progression, a block of raw words can be
produced with vectorized uint64 arithmetic that is bit-identical to the
sequential path; traces are therefore portable across platforms and worker
counts.  ``RngStream.bounded_block`` makes its words in fixed chunks of
``_CHUNK`` (2**16): each chunk adds ``seed + counter * GAMMA`` to a table of
``(j + 1) * GAMMA`` built once at import, applies the finalizer in place in
two reused 512 KiB buffers that stay in cache, and reduces straight into the
result.  ``RngStream.bounded_chunks`` runs the same loop but reduces each
chunk in place and yields it, so a caller that only counts its draws never
holds a block.  :func:`bounded_grid` draws the first words of many streams
at once, as one (streams x words) grid built from the same table, and
flags each stream whose words include a rejected one.  A chunk with a
rejected word is compacted, in order, into
the second buffer through a bool mask allocated beside the buffers, so the
loop allocates nothing per chunk.  The reduction is exact floor division,
``w - (w // n) * n``: since ``(w // n) * n <= w < 2**64`` nothing wraps, so
it equals ``w % n`` word for word, and numpy divides a uint64 array by a
scalar with a multiply-high and shift rather than a hardware divide per
word.  A chunk never holds more words than draws still needed, so every
word of it is consumed, exactly as the sequential path would consume it,
and the stream position after a block does not depend on the chunk size.

Bounded draws on ``[0, n)`` use rejection sampling against the largest
multiple of ``n`` below 2**64, so there is no modulo bias.  A rejected raw
word is consumed and the next word is tried; for ``n <= 10**8`` a rejection
is a ~5e-12 per-draw event.

Seed derivation (per-trial seeds, per-run stream seeds) uses the same
finalizer: ``mix_seeds(seed, i) = fmix64((seed + (i + 1) * GAMMA) mod 2**64)``,
i.e. entry ``i`` of the SplitMix64 output stream for ``seed``.  A run on
``seed`` draws from the two streams :func:`_seed_streams` gives, its
primaries from ``mix_seeds(seed, 0)`` and its secondary pool from
``mix_seeds(seed, 1)``.
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, _as_int

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX_MUL_1 = 0xBF58476D1CE4E5B9
MIX_MUL_2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)
_U_MUL_1 = np.uint64(MIX_MUL_1)
_U_MUL_2 = np.uint64(MIX_MUL_2)

# Raw words per chunk of a block draw.  Its two uint64 buffers (512 KiB
# each) stay in L2: on a 2-vCPU Xeon with 2 MiB of L2 per core, 10**6 draws
# took 6.7-7.7 ms (best of 15) with chunks of 2**14 to 2**16 words against
# 8.8-13.8 ms with 2**17 to 2**20, and 25 ms for one unchunked block.
# The second buffer also holds each chunk's quotients w // n for the
# reduction w - (w // n) * n, which is exact (the product never exceeds w)
# and took 1.5-1.6 ms per 16 chunks against 3.8-4.0 ms for np.remainder,
# whose uint64 path divides word by word.
_CHUNK = 1 << 16
# Offset of chunk word j from the state before the chunk: (j + 1) * GAMMA,
# wrapping like C uint64.
_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * _U_GAMMA


def fmix64(x: int) -> int:
    """SplitMix64 output finalizer on a 64-bit state word."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


def mix_seeds(seed: int, index: int) -> int:
    """Derive a child seed from (seed, index) with full 64-bit avalanche.

    This is the published derivation for per-trial seeds and per-run stream
    seeds: entry ``index`` of the SplitMix64 output stream seeded with any
    integer ``seed``, numpy's too.  Distinct indices always yield distinct
    child seeds because the finalizer is a bijection on 64-bit words.
    """
    return fmix64(operator.index(seed) + (index + 1) * GAMMA)


def _seed_streams(seed: int) -> tuple[RngStream, RngStream]:
    """Fresh primary and secondary streams of a run on ``seed``:
    ``mix_seeds(seed, 0)`` and ``mix_seeds(seed, 1)``."""
    return RngStream(mix_seeds(seed, 0)), RngStream(mix_seeds(seed, 1))


class RngStream:
    """A seeded deterministic stream of uniform draws.

    ``counter`` counts raw 64-bit words consumed, ``draws`` counts bounded
    draws delivered; they differ only in the astronomically rare event that
    rejection sampling discards a word.
    """

    __slots__ = ("seed", "counter", "draws")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.counter = 0
        self.draws = 0

    def next_u64(self) -> int:
        """Next raw 64-bit word."""
        self.counter += 1
        return fmix64(self.seed + self.counter * GAMMA)

    def next_bounded(self, n: int) -> int:
        """Uniform draw on [0, n) via rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ConfigurationError(f"draw bound must be positive, got {n}")
        remainder = (1 << 64) % n
        limit = (1 << 64) - remainder  # accept raw words below this
        while True:
            word = self.next_u64()
            if word < limit:
                self.draws += 1
                return word % n

    def bounded_block(self, n: int, count: int) -> np.ndarray:
        """Vectorized batch of ``count`` bounded draws.

        Produces exactly the sequence ``[next_bounded(n) for _ in
        range(count)]`` would, including rejection-sampling consumption, and
        leaves the stream in the identical position.  The result is an int64
        array, so the bound must not exceed 2**63; use ``next_bounded`` for
        larger bounds.
        """
        limit = _rejection_limit(n, count)
        out = np.empty(count, dtype=np.int64)
        for _ in self._chunks(n, count, limit, out.view(np.uint64)):
            pass
        return out

    def bounded_chunks(self, n: int, count: int) -> Iterator[np.ndarray]:
        """The draws of ``bounded_block(n, count)``, one chunk at a time.

        Yields int64 arrays of at most ``_CHUNK`` draws that together are
        ``bounded_block(n, count)``, with ``counter`` and ``draws`` advanced
        past each chunk as it is yielded.  Every chunk is a view of one of
        the loop's two reused buffers, so it is valid only until the next
        one is requested; the draws of a whole block are never held at
        once.  The arguments are checked when this is called, before any
        word is consumed.
        """
        return self._chunks(n, count, _rejection_limit(n, count), None)

    def _chunks(self, n, count, limit, out):
        # The one chunk loop behind bounded_block (which passes a uint64
        # view of its result as out) and bounded_chunks (out None: each
        # chunk is reduced in place in the second buffer and yielded).
        bound = np.uint64(n)
        words = np.empty(min(count, _CHUNK), dtype=np.uint64)
        shifted = np.empty_like(words)
        keep = np.empty(words.size if limit is not None else 0, dtype=bool)
        filled = 0
        while filled < count:
            m = min(count - filled, _CHUNK)
            w, s = words[:m], shifted[:m]
            np.add(_STEPS[:m], np.uint64((self.seed + self.counter * GAMMA) & MASK64), out=w)
            _fmix_in_place(w, s)
            # m never exceeds the draws still needed, so the sequential path
            # would consume every word of the chunk, rejected ones included.
            self.counter += m
            if limit is not None and w.max() >= limit:
                # Compact the accepted words into the second buffer, in
                # order, and use the first for the quotients.
                mask = keep[:m]
                np.less(w, limit, out=mask)
                m = int(np.count_nonzero(mask))
                np.compress(mask, w, out=s[:m])
                w, s = s[:m], w[:m]
            np.floor_divide(w, bound, out=s)
            s *= bound
            dest = s if out is None else out[filled : filled + m]
            np.subtract(w, s, out=dest)
            filled += m
            self.draws += m
            yield dest.view(np.int64)  # draws are below 2**63, so the view is exact


def _fmix_in_place(w: np.ndarray, scratch: np.ndarray) -> None:
    """Apply :func:`fmix64` to every word of the uint64 array ``w`` in place,
    using ``scratch``, of the same shape, for the shifted words."""
    np.right_shift(w, 30, out=scratch)
    w ^= scratch
    w *= _U_MUL_1
    np.right_shift(w, 27, out=scratch)
    w ^= scratch
    w *= _U_MUL_2
    np.right_shift(w, 31, out=scratch)
    w ^= scratch


def mix_seed_array(seeds: Sequence[int], index: int) -> np.ndarray:
    """``mix_seeds(seed, index)`` for every seed, as a uint64 array."""
    state = np.fromiter(
        (operator.index(seed) & MASK64 for seed in seeds), dtype=np.uint64, count=len(seeds))
    state += np.uint64(((index + 1) * GAMMA) & MASK64)
    _fmix_in_place(state, np.empty_like(state))
    return state


def mix_seed_range(seed: int, count: int) -> np.ndarray:
    """``mix_seeds(seed, i)`` for every i in ``range(count)``, as a uint64
    array: the first ``count`` raw words of ``RngStream(seed)``."""
    state = np.arange(1, count + 1, dtype=np.uint64)
    state *= _U_GAMMA
    state += np.uint64(operator.index(seed) & MASK64)
    _fmix_in_place(state, np.empty_like(state))
    return state


def bounded_grid(stream_seeds: np.ndarray, n: int, count: int):
    """The first ``count`` bounded draws below ``n`` of many streams at once.

    ``stream_seeds`` is a uint64 array of m stream seeds, and ``count`` at
    most ``_CHUNK``.  Returns ``(draws, exact)``: an (m, count) int64 array
    whose row i is ``RngStream(stream_seeds[i]).bounded_block(n, count)``
    wherever ``exact[i]`` is True, that is, wherever none of the row's first
    ``count`` raw words is rejected.  A row with a rejected word is not its
    stream's block, so a caller must draw that stream again.  Word j of row
    i is ``fmix64(stream_seeds[i] + (j + 1) * GAMMA)``, exactly the word the
    sequential path reads, so no stream is changed.
    """
    limit = _rejection_limit(n, count)
    if count > _CHUNK:
        raise ConfigurationError(f"a grid row holds at most {_CHUNK} draws, got {count}")
    words = stream_seeds[:, None] + _STEPS[:count]
    scratch = np.empty_like(words)
    _fmix_in_place(words, scratch)
    exact = np.ones(len(words), dtype=bool)
    if limit is not None and words.size and words.max() >= limit:
        exact = words.max(axis=1) < limit
    bound = np.uint64(n)
    np.floor_divide(words, bound, out=scratch)
    scratch *= bound
    words -= scratch
    return words.view(np.int64), exact


def _rejection_limit(n: int, count: int) -> np.uint64 | None:
    """Check a draw request and return its rejection limit.

    Raw words at or above the limit are rejected; it is None when ``n``
    divides 2**64, so that no word ever is.
    """
    if n <= 0:
        raise ConfigurationError(f"draw bound must be positive, got {n}")
    if n > 1 << 63:
        raise ConfigurationError(
            f"vectorized draws support bounds up to 2**63, got {n}"
        )
    if count < 0:
        raise ConfigurationError(f"draw count must be non-negative, got {count}")
    remainder = (1 << 64) % n
    return np.uint64((1 << 64) - remainder) if remainder else None


def _chunk_buffer_bytes(n: int, count: int) -> int:
    """Bytes the chunk loop holds besides a block's result, for ``count``
    draws below ``n``: two uint64 chunk buffers, and a bool per chunk word
    when ``n`` does not divide 2**64, so that a word can be rejected."""
    m = min(count, _CHUNK)
    return 16 * m + (m if (1 << 64) % n else 0)


class FixedStream:
    """A stream that replays a preset sequence of bounded draws.

    Used by the exact oracle's pass over bin states and by tests to inject
    specific draw outcomes into the engine.  A value is drawn by the integer
    rule, so no kernel reads a truncated one.
    """

    __slots__ = ("values", "draws")

    def __init__(self, values: Sequence[int]):
        self.values = tuple(values)
        self.draws = 0

    def next_bounded(self, n: int) -> int:
        if self.draws >= len(self.values):
            raise ConfigurationError(
                f"fixed stream exhausted after {len(self.values)} draws"
            )
        value = self.values[self.draws]
        if type(value) is not int:  # a numpy integer passes, as its int
            value = _as_int(value, "fixed stream value")
        if not 0 <= value < n:
            raise ConfigurationError(
                f"fixed stream value {value} outside [0, {n})"
            )
        self.draws += 1
        return value

    def bounded_block(self, n: int, count: int) -> np.ndarray:
        return np.array([self.next_bounded(n) for _ in range(count)], dtype=np.int64)
