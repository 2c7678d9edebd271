"""The counting kernel: summaries of runs whose loads follow from counts.

One-choice, always-reject and threshold with retry budget 1 decide each
ball from its primary bin's suggestion count alone, and a rejected ball
takes the next draw of the secondary pool.  So a run's loads are, per bin,
its primaries capped at the rule's level (``StrategySpec.level``: t for
one-choice, whose cap never binds, and 0 for always-reject, whose
primaries are not drawn) plus the pool draws that the rejections consume,
and counts of the draws give them without a per-ball record.  The kernel
branches on the level, never on the kind.  :func:`_count_groups` counts
the runs of many seeds, each from the streams ``rng._seed_streams``
derives from its seed; ``engine._summary_groups`` serves these kinds from
it, for ``engine.run_summary`` and ``engine.run_summary_batch``, and
``engine.summary_peak_bytes`` reads its bound, :func:`_count_peak_bytes`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .rng import _CHUNK, _chunk_buffer_bytes, _seed_streams, bounded_grid, mix_seed_array
from .strategies import StrategySpec


def _counts_draws(spec: StrategySpec) -> bool:
    """Whether a run's loads follow from counts of its draws: one-choice,
    always-reject and threshold with retry budget 1."""
    return spec.is_thinning and spec.retry_budget == 1


def _summaries(groups):
    """(max load, rejections) of every run of ``groups``, in order: groups
    shaped like those of :func:`_count_groups`."""
    for loads, rejections in groups:
        maxima = loads.max(axis=1).tolist()
        del loads  # released before the next group is counted
        yield from zip(maxima, rejections)


def _count_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory that counting the runs of any number of
    seeds holds at once; see ``engine.summary_peak_bytes``."""
    w = np.min_scalar_type(t).itemsize  # bytes per bin of a table that holds t
    level = spec.level(t)
    m = _grid_rows(n, t)
    if m >= 2:
        # A grid of m runs (_count_grid), in bytes.  Drawing a grid holds it
        # and its scratch (16mt); counting it, the grid and the int64 loads
        # (8mn).  With a pool, its phase also holds the loads, the pool
        # grid, its bool mask (mt), the taken draws (8 per rejection, at
        # most 8mt) and an arange of t, and adding the pool's bincount holds
        # two load grids and the taken draws.  Per run, at most 64 bytes of
        # seeds, offsets, row reductions and result lists.  A run counted
        # again after a rejected word holds less.  A single seed is counted
        # as a table instead.
        data = max(16 * m * t, 8 * m * n + 8 * m * t)
        if level < t:  # rejections are possible
            data = max(data, 8 * m * n + 17 * m * t + 8 * t, 16 * m * n + 8 * m * t)
        return 16 * 1024 + 64 * m + data
    # _count_runs holds its slice mask and its table: a uint8 one, or,
    # counting again after a bin wrapped, one of w bytes per bin, allocated
    # once the uint8 one is freed.  Beside them, one stream's chunk
    # buffers, or, while a table is capped, its bins above the level in one
    # slice (an int64 index and a gathered load each), of which there are
    # at most t // (level + 1); at level 0 no table is capped.  At most
    # 32 KiB of Python objects, np.add.at's buffers and a batch's
    # generators.
    part = min(n, _CHUNK)
    phase = _chunk_buffer_bytes(n, t)
    if level:
        phase = max(phase, (8 + w) * min(part, t // (level + 1)))
    return n * w + part + phase + 32 * 1024


def _grid_rows(n: int, t: int) -> int:
    """Most runs of n bins and t balls counted as one grid: its draws and
    its load table each hold at most ``_CHUNK`` words."""
    return _CHUNK // max(n, t)


def _count_groups(n, t, spec, seeds):
    """The counting kernel: loads and rejections of every seed's run.

    A generator over groups of consecutive seeds, in order.  Each yields
    ``(loads, rejections)``: an (m, n) array whose row i holds the loads of
    the group's run i, in a type that holds every load, and a list of the
    m rejection counts.  The arrays may be reused, so each group is valid
    only until the next is requested.

    The regime follows from the sizes.  With :func:`_grid_rows` below 2,
    or a single seed, each group is one run, counted by :func:`_count_runs`
    into a table kept for the whole batch.  Otherwise each group is one
    grid of at most that many runs (:func:`_count_grid`).
    """
    rows = _grid_rows(n, t)
    if rows < 2 or len(seeds) < 2:
        runs = (partial(_seed_streams, seed) for seed in seeds)
        for table, rejections in _count_runs(n, t, spec, runs):
            yield table[None], [rejections]
        return
    for start in range(0, len(seeds), rows):
        yield _count_grid(n, t, spec, seeds[start : start + rows])


def _count_runs(n, t, spec, runs):
    """Loads and rejections of one run after another, in one load table.

    ``runs`` yields, per run, a callable that returns fresh (primary,
    secondary) streams of that run.  A generator: per run it yields the
    table and the run's rejection count, valid until the next run is
    requested, and a bool mask of one slice of ``_CHUNK`` bins, which a
    run's cap reuses.  The table starts as uint8.  A run in which a bin
    passes 255 wraps it (see :func:`_count_run`); the uint8 table is then
    freed, a table of ``np.min_scalar_type(t)``, which cannot wrap, takes
    its place for this run and every later one, and the run is counted
    again from fresh streams.
    """
    mask = np.empty(min(n, _CHUNK), dtype=bool)
    table = np.empty(n, dtype=np.uint8)
    for streams in runs:
        rejections = _count_run(table, mask, t, spec, *streams())
        if rejections is None:
            table = None  # freed before the wide table is allocated
            table = np.empty(n, dtype=np.min_scalar_type(t))
            rejections = _count_run(table, mask, t, spec, *streams())
        yield table, rejections


def _count_run(table, mask, t, spec, primary, secondary):
    """Count one run of a counting kind into ``table``; its rejections.

    The table is zeroed, then each chunk of draws is counted into it by
    ``np.add.at``, so no t-length array is held.  A table whose level is
    below t is capped at it once the primaries are counted, one slice of
    ``_CHUNK`` bins at a time, marked in ``mask``: only the bins above the
    level are touched, each keeps that many of its primaries, and its
    excess is rejected.  The rejected balls land on consecutive pool
    draws, which are counted into the same table.

    A bin that passes the table's top wraps, which only a table whose top
    is below t can do.  Each wrap takes top + 1 from the table's sum, and
    the rejections are the excess that the table shows, so a wrap in the
    primaries or in the pool leaves the final table summing to less than
    t.  A wrapped run returns None.
    """
    n = table.size
    top = int(np.iinfo(table.dtype).max)
    level = spec.level(t)
    table.fill(0)
    # At level 0 the loads come from the pool alone, so the primaries are
    # not drawn.
    rejections = 0 if level else t
    if level:
        _add_chunks(table, primary.bounded_chunks(n, t))
    if 0 < level < t:
        cap = min(level, top)  # a cap above top could not bind
        for start in range(0, n, _CHUNK):
            part = table[start : start + _CHUNK]
            above = mask[: part.size]
            np.greater(part, cap, out=above)
            over = np.flatnonzero(above)
            rejections += int(part[over].sum(dtype=np.int64)) - cap * over.size
            part[over] = cap
    _add_chunks(table, secondary.bounded_chunks(n, rejections))
    # A sum of counts never passes t, so summing in the narrowest type that
    # holds t is exact, and faster than numpy's default uint64 accumulator.
    if top < t and table.sum(dtype=np.min_scalar_type(t)) != t:
        return None
    return rejections


def _count_grid(n, t, spec, seeds):
    """Loads and rejections of the runs on ``seeds``, as one grid.

    The m runs' streams are drawn together as (m, t) grids
    (:func:`bounded_grid`); run i's bins are keyed ``i * n + bin``, so one
    bincount counts every run.  A run keeps min(count, level) of each
    bin's primaries, and its r rejected balls take the first r words
    of its pool row.  A run with a rejected raw word in either row is not
    what the grid assumes, so it is counted again by :func:`_count_runs`.
    Returns ``(loads, rejections)`` as a group of :func:`_count_groups`.
    """
    m = len(seeds)
    keys_base = np.arange(0, m * n, n, dtype=np.int64)[:, None]
    level = spec.level(t)
    if not level:
        loads = np.zeros((m, n), dtype=np.int64)
        rejections = np.full(m, t, dtype=np.int64)
        exact = np.ones(m, dtype=bool)
    else:
        bins, exact = bounded_grid(mix_seed_array(seeds, 0), n, t)
        bins += keys_base
        loads = np.bincount(bins.ravel(), minlength=m * n).reshape(m, n)
        del bins
        rejections = np.zeros(m, dtype=np.int64)
        if level < t:
            np.minimum(loads, level, out=loads)
            rejections = t - loads.sum(axis=1)
    if rejections.any():
        bins, exact_pool = bounded_grid(mix_seed_array(seeds, 1), n, t)
        exact &= exact_pool
        bins += keys_base
        taken = bins[np.arange(t) < rejections[:, None]]
        del bins
        loads += np.bincount(taken, minlength=m * n).reshape(m, n)
        del taken
    rejections = rejections.tolist()
    for i in np.flatnonzero(~exact).tolist():
        runs = [partial(_seed_streams, seeds[i])]
        table, rejections[i] = next(_count_runs(n, t, spec, runs))
        loads[i] = table
    return loads, rejections


def _add_chunks(loads, chunks) -> None:
    """Count each chunk of bins into ``loads``, which may wrap.

    The last chunk, and so its buffer, is released on return, before the
    caller draws again.
    """
    one = loads.dtype.type(1)  # a Python int would take numpy's slow path
    for chunk in chunks:
        np.add.at(loads, chunk, one)
