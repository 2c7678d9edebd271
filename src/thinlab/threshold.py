"""The threshold kernel: placement of thinning runs, one chunk at a time.

A thinning rule rejects a ball's primary iff its bin already had as many
primaries as its level (``StrategySpec.level``), which the kernel branches
on, never on the kind.  :func:`_threshold_chunks` places a run's balls,
for every retry budget, in chunks of ``_THRESHOLD_CHUNK`` balls, and
yields them as ``engine._placements`` describes, for ``engine._columns``
and for summaries with retry budget above 1; summaries with budget 1 are
counted by :mod:`thinlab.counting`.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError
from .strategies import StrategySpec

# Balls per chunk.  run_summary threshold:4,k=2 at n = t = 10**5 took
# 3.34 ms and peaked at 1.35 MiB under tracemalloc with 2**14, against
# 3.18 ms and 1.74 MiB with 2**15 and 3.71 ms and 2.52 MiB with 2**16; at
# n = t = 10**6 2**14 took 57.8 ms against 48.3 ms with 2**16, for 9.93
# against 11.10 MiB (medians of 12 alternating rounds, 2-vCPU Xeon).
# Chunk offsets must fit the uint16 ``cut``.
_THRESHOLD_CHUNK = 1 << 14


def _threshold_chunks(n, t, spec, primary_stream, secondary_stream):
    """Threshold placement, one chunk of ``_THRESHOLD_CHUNK`` balls at a time.

    A generator of the chunks ``engine._placements`` describes, with the
    load table ``count`` (``np.min_scalar_type(t)``); once, empty, when t
    is 0.  A chunk is dropped before the next is drawn.  Streams are read
    as block draws read them, so draws and stream positions match
    ``engine.step``.

    A primary is rejected iff its bin already had ell, the rule's level,
    which ``count`` settles for all balls but those whose bin reaches ell
    in the chunk: they alone take an occurrence index.
    Rejected balls take pool draws in ball order until one is accepted or
    k are used; a draw to bin b for ball j is rejected iff b's ell-th
    primary (counted before any pool draw of its ball) is at or before j:
    iff ``count[b] >= ell`` at the chunk's end and ``cut[b] <= j``, ``cut``
    holding that primary's chunk offset, or 0.  Pool draws never move
    ``count``, a bin's primaries until the last chunk is yielded, so the
    run's loads are then ``min(count, ell)`` plus the bin's landings.
    """
    ell = spec.level(t)
    count = np.zeros(n, dtype=np.min_scalar_type(t))
    landings = np.zeros_like(count)
    one = count.dtype.type(1)  # a Python int would take a slow path
    cut = np.zeros(n, dtype=np.uint16)
    for begin in range(0, max(t, 1), _THRESHOLD_CHUNK):
        p = primary_stream.bounded_block(n, min(t - begin, _THRESHOLD_CHUNK))
        before = count[p]
        np.add.at(count, p, one)
        rejected = before >= ell
        reaching = np.flatnonzero(~rejected & (count[p] >= ell))
        occurrence = _occurrence_index(p[reaching], n) + before[reaching]
        rejected[reaching[occurrence >= ell]] = True
        ell_th = reaching[occurrence == ell - 1]  # chunk offsets
        del before, reaching, occurrence  # not held through the pool draws
        balls = np.flatnonzero(rejected)
        del rejected
        cut[p[ell_th]] = ell_th
        landed, rejects = _pool_landings(
            balls, p.size, count, cut, ell, spec.retry_budget, secondary_stream)
        cut[p[ell_th]] = 0
        np.add.at(landings, landed, one)
        yield p, balls, landed, rejects, count
        del p, balls, ell_th, landed, rejects
    np.minimum(count, ell, out=count)
    count += landings


def _pool_landings(balls, m, count, cut, ell, budget, secondary_stream):
    """Landing bins and reject counts of the rejected ``balls`` of a chunk of
    ``m`` balls; see :func:`_threshold_chunks`.  The pool is refilled with
    one draw per unlanded ball, which each needs."""
    n = count.size
    if budget == 1 or not balls.size:
        return secondary_stream.bounded_block(n, balls.size), np.ones(balls.size, dtype=np.int64)
    landing, blocks, limits = [], [], []
    base = q = size = 0  # the pool index of limits[0], the next draw's in limits, its length
    for i, ball in enumerate(balls.tolist()):
        left = budget
        while True:
            if q == size:
                base += size
                del limits  # not held beside the next block's
                more = secondary_stream.bounded_block(n, balls.size - i)
                blocks.append(more)
                # The first chunk offset whose draw to this bin is rejected.
                limit = cut[more].astype(np.int64)
                limit[count[more] < ell] = m
                limits = limit.tolist()
                del limit
                q, size = 0, len(limits)
            left -= 1
            if not left or ball < limits[q]:
                break
            q += 1
        landing.append(base + q)
        q += 1
    del limits  # not held beside the concatenation
    landing = np.array(landing, dtype=np.int64)
    return np.concatenate(blocks)[landing], np.diff(landing, prepend=-1)


def _occurrence_index(values: np.ndarray, n: int) -> np.ndarray:
    """occ[i] = how many earlier entries equal values[i], for values in [0, n).

    Each value is packed above its index into one int64 key.  The keys are
    unique, so numpy's default sort of them yields the stable order of the
    values, which is several times faster than a stable argsort.  A bound
    and length whose keys would need more than 63 bits raise
    ResourceLimitError; tallies that large could not be allocated anyway.
    """
    t = len(values)
    shift = t.bit_length()
    if (n - 1).bit_length() + shift > 63:
        raise ResourceLimitError(
            f"cannot pack {t} draws below {n} into 63-bit occurrence keys"
        )
    keys = values << shift
    keys |= np.arange(t, dtype=np.int64)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    sorted_values = np.right_shift(keys, shift, out=keys)
    positions = np.arange(t, dtype=np.int64)
    run_start = np.ones(t, dtype=bool)
    run_start[1:] = sorted_values[1:] != sorted_values[:-1]
    start_positions = np.maximum.accumulate(np.where(run_start, positions, 0))
    positions -= start_positions
    occurrence = np.empty(t, dtype=np.int64)
    occurrence[order] = positions
    return occurrence


def _threshold_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory :func:`_threshold_chunks` holds at once,
    besides the chunks it has yielded; see ``engine.summary_peak_bytes``.

    ``count``, ``landings`` and ``cut``, 16 KiB of Python objects, and per
    chunk ball the largest phase, every ball rejected (a ball whose primary
    is its bin's ell-th is not, and costs less): deciding (66 + w: the
    bins, ``before``, a mask, the reaching balls and
    :func:`_occurrence_index`'s seven arrays of them); the retry scan (96 +
    8k: the bins and rejected balls, 36 bytes of list entry per ball, 44
    per landing or limit with the new block's limit array, and at most k
    pool draws); or its end (32 + 16k: the pool blocks beside their
    concatenation).
    """
    w = np.min_scalar_type(t).itemsize
    k = spec.retry_budget
    per_ball = 66 + w if k == 1 else max(96 + 8 * k, 32 + 16 * k)
    return n * (2 * w + 2) + per_ball * min(t, _THRESHOLD_CHUNK) + 16 * 1024
