"""The two-choices kernel: placement of two-choices runs, one chunk at a time.

Two-choices is outside the thinning class: each ball sees both its
primary and a secondary candidate, consumes one secondary draw, and goes
to the less loaded of the two (the primary on ties).
:func:`_two_choices_kernel` places the balls of a run in chunks of
``_TWO_CHOICES_CHUNK`` balls, sorting keys of bin above block offset
(uint32 while n <= 2**20) per block of ``_TWO_CHOICES_BLOCK`` balls, and
yields them as ``engine._placements`` describes, as the threshold kernel
does; :func:`_two_choices_peak_bytes` bounds what a summary holds.
"""

from __future__ import annotations

import numpy as np

from .rng import _chunk_buffer_bytes

# Balls in one block of the two-choices kernel.  Longer blocks leave more
# balls to its scalar tail, shorter ones pay more numpy calls: run_summary
# at n = t = 10**6 took 1.10x as long with 2**11 (uint32 keys, medians of
# 60 rounds, 2-vCPU Xeon); 2**13 needs int64 keys there.
_TWO_CHOICES_BLOCK = 1 << 12
# Balls in one chunk of the two-choices kernel: at n = t = 10**6 a summary
# peaks at 1.52 MiB, against 3.07 with 2**16 (tracemalloc); 2**12 was
# slower, 2**13 no faster.
_TWO_CHOICES_CHUNK = 4 * _TWO_CHOICES_BLOCK


def _two_choices_kernel(n, t, primary_stream, secondary_stream):
    """Two-choices placement, drawn and placed one chunk at a time.

    A generator: per chunk of ``_TWO_CHOICES_CHUNK`` balls it draws the
    primaries, then the candidates, places the balls and yields the chunk
    as ``engine._placements`` describes it, with the load table so far (n
    loads, then a sink bin).  It yields one empty chunk if t is 0, and
    drops a chunk before it draws the next.  Each stream is read as one
    block draw of t reads it, so draws and stream positions match
    ``engine.step``.  A ball moves, with one reject, only to a strictly
    lower load, so the moved balls are exactly where ``final_bins !=
    primary_bins``.

    ``load`` starts as uint8, so a million bins fit in L2.  It is widened
    once, to the narrowest type that holds t, just before a load could
    pass 255: before a ready step (at most +1 a bin) if ``top``, a bound on
    the loads, is 255; in the tail, before a load of 256 is written.
    """
    wide = np.min_scalar_type(t)
    load = np.zeros(n + 1, dtype=np.uint8)
    top = 0
    offsets = np.arange(_TWO_CHOICES_BLOCK, dtype=_key_type(n))
    keys = np.empty(2 * offsets.size, dtype=offsets.dtype)
    for begin in range(0, max(t, 1), _TWO_CHOICES_CHUNK):
        m = min(t - begin, _TWO_CHOICES_CHUNK)
        p = primary_stream.bounded_block(n, m)
        s = secondary_stream.bounded_block(n, m)
        took, load, top = _place_two_choices(p, s, keys, offsets, load, top, wide)
        balls = np.flatnonzero(took)
        yield p, balls, s[balls], np.ones(balls.size, dtype=np.int64), load
        del p, s, took, balls


def _place_two_choices(p, s, keys, offsets, load, top, wide):
    """Place one chunk of :func:`_two_choices_kernel`; returns its took mask,
    the load table (widened if it had to be) and the new bound ``top``.  Its
    views of the chunk die when it returns, before the next draw.

    Per block of ``len(offsets)`` balls, the balls the index step
    (:func:`_waiting_balls`) does not return share no bin with each other or
    an earlier ball of the block, so a load step of one gather of both
    loads and one scatter of ``min(lp, ls) + 1`` places them with the loads
    sequential placement shows them; it sends the waiting balls to the sink
    bin n, which no ball reads, then places them one by one.
    """
    n, block = load.size - 1, offsets.size
    took = np.empty(p.size, dtype=bool)
    for start in range(0, p.size, block):
        part = slice(start, start + block)
        bp, bs, bt = p[part], s[part], took[part]
        waiting = _waiting_balls(bp, bs, keys, offsets)
        if top == 255 and load.dtype != wide:
            load = load.astype(wide)
        lp, ls = load[bp], load[bs]
        np.less(ls, lp, out=bt)
        target = np.where(bt, bs, bp)
        target[waiting] = n
        np.minimum(lp, ls, out=lp)
        lp += 1
        load[target] = lp
        top = max(top, int(lp.max()))
        view = memoryview(load)
        flags = []
        for a, b in zip(bp[waiting].tolist(), bs[waiting].tolist()):
            la, lb = view[a], view[b]
            flags.append(lb < la)
            if lb < la:
                a, la = b, lb
            la += 1
            if la > top:
                top = la
                if la > 255 and load.dtype != wide:
                    load = load.astype(wide)
                    view = memoryview(load)
            view[a] = la
        bt[waiting] = flags
    return took, load, top


def _key_type(n):
    """The key dtype of :func:`_waiting_balls` for n bins."""
    return np.uint32 if (n - 1) << (_TWO_CHOICES_BLOCK - 1).bit_length() < 2**32 else np.int64


def _waiting_balls(bp, bs, keys, offsets):
    """Ascending offsets of the balls of a block (bins ``bp``, ``bs``) that
    share a bin with an earlier ball of it.

    Each bin goes above its block offset, no side bit, in ``keys`` (uint32
    while n <= 2**20, else int64: n < 2**31 within the memory budget),
    whose length sets the offset width ``shift``.  Sorted, keys run through
    each bin in ball order, so a ball waits iff a key of its directly
    follows another of the same bin: their xor is below 2**shift and not 0
    (a ball whose bins are one has equal keys, and stays ready).
    """
    b, shift = len(bp), (keys.size // 2 - 1).bit_length()
    k = keys[: 2 * b]
    for half, bins in ((k[:b], bp), (k[b:], bs)):
        np.left_shift(bins, shift, out=half, casting="unsafe")
        half |= offsets[:b]
    k.sort()
    pair = k[1:] ^ k[:-1]
    follows = k[1:][(pair < (1 << shift)) & (pair != 0)]
    waiting = np.zeros(b, dtype=bool)
    waiting[follows & ((1 << shift) - 1)] = True
    return np.flatnonzero(waiting)


def _two_choices_peak_bytes(n: int, t: int) -> int:
    """Upper bound on the memory one two-choices summary holds at once, as
    ``engine.summary_peak_bytes`` counts it.

    The kernel holds the n + 1-bin load table, keys and offsets (3 per
    block ball, uint32 while n <= 2**20), 16 KiB of Python objects and one
    chunk of c balls, either drawn (its bins and their draw buffers),
    placed (its bins and took mask, a block's temporaries, at most 14 words
    per block ball with the waiting balls' Python lists, and while the
    table widens the uint8 table beside the wide one) or yielded (its bins
    and took mask, and three words per moved ball, which the temporaries'
    bound covers while a chunk is at most four blocks).  A seeded run's max
    load exceeds t/n by about log2 log n, with a doubly exponential tail,
    so the table is counted wide where t >= 128n.
    """
    c = min(t, _TWO_CHOICES_CHUNK)
    wide = t >= 128 * n
    w = np.min_scalar_type(t).itemsize if wide else 1
    key = np.dtype(_key_type(n)).itemsize
    tables = (n + 1) * w + 3 * key * _TWO_CHOICES_BLOCK
    placed = 17 * c + 112 * min(c, _TWO_CHOICES_BLOCK) + (n + 1) * wide
    return 16 * 1024 + tables + max(16 * c + _chunk_buffer_bytes(n, c), placed)
