"""The two-thinning allocation process engine: stepping, runs and summaries.

Each ball draws a uniform primary bin from the primary stream.  A thinning
strategy, seeing only the tallies so far and the suggestion, accepts or
rejects; a rejected ball lands at the next unconsumed draw of the secondary
pool.  With a retry budget k above 1, each fresh pool suggestion is put to
the strategy again, and after k rejections the next pool draw is forced.

Bins are 1-based in every public record and serialization, 0-based in the
tally arrays.

:func:`step` allocates one ball at a time and is the reference oracle, in
one flow for every kind: it finds the ball's landing bin, then moves its
tallies and builds its record once, its decisions by ``trace._decisions``.
:func:`run_reference` steps a whole run, only to check the kernel against,
under its own memory bound, :func:`_reference_peak_bytes`.
:func:`run` and :func:`run_with_streams` always run one vectorized kernel,
:func:`_columns`, which yields bit-identical traces and stream positions.
It picks its path by the thinning level (``StrategySpec.level``): a rule
at level 0 or t, such as always-reject or one-choice, is drawn as blocks
(:func:`_drawn_as_blocks`); other levels, and two-choices, run the
placement kernel that :func:`_placements` picks, whose chunks ``_columns``
writes into three preallocated columns.  :func:`run_summary` and
:func:`run_summary_batch` never build the columns: :func:`_summary_groups`
counts the draws, or runs a placement kernel and keeps only the loads and
rejections.  Both memory bounds read these choices here:
:func:`trace_peak_bytes` bounds a run and :func:`summary_peak_bytes` a
summary, each from the bound of the kernel it runs
(:func:`_placement_peak_bytes` for the placement kernels).  Each kernel
has its own module:

- one-choice, always-reject and threshold with k = 1, in summaries: the
  counting kernel (:mod:`thinlab.counting`), which counts the runs of many
  seeds together; its regimes are described there.  ``run_summary``
  returns the table it counted into, so its loads are exact but often
  narrower than int64;
- threshold, for every retry budget: a placement kernel
  (:mod:`thinlab.threshold`);
- two-choices (outside the thinning class: it sees both candidate bins,
  and consumes one secondary draw per ball): a placement kernel
  (:mod:`thinlab.two_choices`).

What a run records (:class:`ProcessState`, :class:`AllocationRecord`,
:class:`Trace`, :func:`trace_from_json` and :func:`replay`) lives in
:mod:`thinlab.trace` and is re-exported here.  A run's two streams come
from ``rng._seed_streams``.  The memory budget, ``MEMORY_BUDGET_BYTES``,
lives in :mod:`thinlab.errors`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .counting import _count_groups, _count_peak_bytes, _counts_draws, _summaries
from .errors import ConfigurationError, _as_int, _check_budget, _shown
from .rng import _chunk_buffer_bytes, _seed_streams
from .strategies import (
    TWO_CHOICES_GREEDY,
    StrategySpec,
    decide,
    parse_strategy,
    two_choices_decide,
)
from .threshold import _threshold_chunks, _threshold_peak_bytes
# replay and trace_from_json are imported to re-export them.
from .trace import (
    _TALLY_FIELDS,
    AllocationRecord,
    ProcessState,
    Trace,
    _assemble_trace,
    _assembly_peak_bytes,
    _decisions,
    replay,
    trace_from_json,
)
from .two_choices import _two_choices_kernel, _two_choices_peak_bytes


def _ball_count(t) -> int:
    """A run's ball count, checked: below 2**64, since from there no load
    table can hold it (``np.min_scalar_type`` gives object)."""
    t = _as_int(t, "ball count", 0)
    if t >> 64:
        raise ConfigurationError(
            f"ball count must be below 2**64, the most a load table holds; got one of "
            f"{t.bit_length()} bits"
        )
    return t


def _check_run(n, t, strategy) -> tuple[int, int, StrategySpec]:
    """The bin count, ball count and spec of a run, checked."""
    n = _as_int(n, "bin count", 1)
    return n, _ball_count(t), parse_strategy(strategy, n=n)


def new_process(n: int, strategy) -> ProcessState:
    """Fresh zeroed process over ``n`` bins with the given strategy."""
    n = _as_int(n, "bin count", 1)
    return ProcessState(n=n, strategy=parse_strategy(strategy, n=n))


def step(state: ProcessState, primary_stream, secondary_stream) -> AllocationRecord:
    """Allocate one ball, mutating ``state``; returns the ball's record.

    This is the reference oracle that the vectorized kernel is checked
    against.  The streams must be positioned where the process left them:
    the primary stream at one draw per ball so far; the secondary stream at
    one draw per rejection so far (thinning kinds) or one draw per ball
    (two-choices, which observes a secondary candidate for every ball).

    One flow for every kind: draw the primary, find the landing bin, then
    move the tallies and build the record once.  Two-choices draws its
    candidate and moves only to a strictly lower load, which counts as one
    reject.  A thinning rule is asked about the primary before it is
    counted, then about each pool draw, read only when needed, until one is
    accepted or the k-th is forced.
    """
    spec, n = state.strategy, state.n
    primary = primary_stream.next_bounded(n)
    two_choices = spec.kind == TWO_CHOICES_GREEDY
    accept = two_choices or decide(spec, state, primary)
    state.primary_suggested[primary] += 1
    if two_choices:
        landing = two_choices_decide(state, primary, secondary_stream.next_bounded(n))
        rejects, pool_index = int(landing != primary), state.t
    else:
        landing, rejects = primary, 0
        while not accept:
            rejects += 1
            landing = secondary_stream.next_bounded(n)
            accept = rejects == spec.retry_budget or decide(spec, state, landing)
        pool_index = state.rejections + rejects - 1  # the last pool draw it read
    state.load[landing] += 1
    if not rejects:
        state.primary_accepted[landing] += 1
    state.rejections += rejects
    state.t += 1
    return AllocationRecord(state.t, primary + 1, _decisions(rejects, spec), landing + 1,
                            pool_index if rejects else None)


def _drawn_as_blocks(t, spec) -> bool:
    """Whether :func:`_columns` draws a run of ``t`` balls as blocks, not
    through a placement kernel: its rule is at level 0 or t, so it rejects
    every ball or none."""
    return spec.level(t) in (0, t)


def _columns(n, t, spec, primary_stream, secondary_stream):
    """The vectorized kernel: per-ball columns of a run.

    Returns primary bins, final bins and reject counts, bit-identical to
    what :func:`step` records, and leaves both streams where it leaves them.
    A run that :func:`_drawn_as_blocks` is drawn as blocks; any other, and
    two-choices, runs the placement kernel, whose chunks are written at
    their offsets.
    """
    if _drawn_as_blocks(t, spec):
        level = spec.level(t)
        primary_bins = primary_stream.bounded_block(n, t)
        final_bins = primary_bins.copy() if level else secondary_stream.bounded_block(n, t)
        return primary_bins, final_bins, np.full(t, not level, dtype=np.int64)
    primary_bins, final_bins = np.empty(t, dtype=np.int64), np.empty(t, dtype=np.int64)
    reject_counts = np.zeros(t, dtype=np.int64)
    begin = 0
    chunks = _placements(n, t, spec, primary_stream, secondary_stream, columns=True)
    for p, balls, landed, rejects, _ in chunks:
        chunk = slice(begin, begin + p.size)
        primary_bins[chunk] = final_bins[chunk] = p
        final_bins[chunk][balls] = landed
        reject_counts[chunk][balls] = rejects
        begin += p.size
        del p, balls, landed, rejects  # not held while the kernel places the next chunk
    return primary_bins, final_bins, reject_counts


def _placements(n, t, spec, primary_stream, secondary_stream, columns):
    """The one choice of placement kernel, for a run's chunks of 2**14 balls.

    Both kernels yield ``(p, balls, landed, rejects, loads)`` per chunk:
    its primary bins, the ascending chunk offsets of the balls that left
    their primary, their landing bins and int64 reject counts, and the load
    table, whose first n entries are the run's loads once the last chunk is
    yielded.  So neither holds a t-length array.  Without ``columns``, for a
    summary, which reads only the loads and the rejections, ``rejects`` is
    the chunk's reject total, an int, and the two-choices kernel yields
    ``balls`` and ``landed`` as None: it counts its moved balls, each one
    reject, and builds no column of them.
    """
    if spec.is_thinning:
        return _threshold_chunks(n, t, spec, primary_stream, secondary_stream, columns)
    return _two_choices_kernel(n, t, primary_stream, secondary_stream, columns)


def _placement_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory the kernel :func:`_placements` picks holds
    at once, its yielded chunks and load table included."""
    if spec.is_thinning:
        return _threshold_peak_bytes(n, t, spec)
    return _two_choices_peak_bytes(n, t)


def trace_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory one :func:`run` call holds at once.

    Counted like :func:`summary_peak_bytes`, with the most rejections a run
    can have, as the larger of two phases: :func:`_columns`, whose three
    int64 columns sit beside the placement kernel it runs (or, for a run
    drawn as blocks, the draw buffers of its blocks) and 16 KiB of Python
    objects; then ``trace._assembly_peak_bytes`` at the rule's thinning
    level, which builds the trace from them.  The tests check it against
    ``tracemalloc`` for every kind.
    """
    if _drawn_as_blocks(t, spec):
        kernel = _chunk_buffer_bytes(n, t)
    else:
        kernel = _placement_peak_bytes(n, t, spec)
    columns = 8 * (3 * t + -(-kernel // 8)) + 16 * 1024
    return max(columns, _assembly_peak_bytes(n, t, spec.level(t)))


def _reference_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory one :func:`run_reference` call holds at once,
    the same for every ``spec``, since stepping holds no kernel.

    Its four t-word columns and the stepped state's three n-word tallies
    sit beside the larger of two phases: ``trace._assembly_peak_bytes``
    with no level, less the three columns it counts as its own; then the
    check, which holds the trace's state (three n-word tallies) and
    ``Trace.pool_indices`` (a running sum, a mask and the result: 17 bytes
    a ball), plus 16 KiB of Python objects.  The tests check it against
    ``tracemalloc``.
    """
    assembly = _assembly_peak_bytes(n, t) - 8 * 3 * t
    check = 8 * 3 * n + 17 * t + 16 * 1024
    return 8 * (4 * t + 3 * n) + max(assembly, check)


def _check_streams_run(n, t, strategy, seed, peak_bytes):
    """A streams run's checked arguments, refused beyond the memory budget
    by the runner's bound, ``peak_bytes`` of (n, t, spec)."""
    n, t, spec = _check_run(n, t, strategy)
    seed = None if seed is None else _as_int(seed, "seed")
    _check_budget(peak_bytes(n, t, spec), f"a trace of {t} balls in {_shown(n)} bins")
    return n, t, spec, seed


def run_with_streams(n, t, strategy, primary_stream, secondary_stream,
                     seed: int | None = None) -> Trace:
    """Run ``t`` balls against caller-provided streams (e.g. preset draws)
    through the vectorized kernel, :func:`_columns`.

    ``seed`` only labels the trace; it may be None.  A run whose
    :func:`trace_peak_bytes` exceeds ``MEMORY_BUDGET_BYTES`` raises
    ``ResourceLimitError`` before anything is allocated or drawn.
    """
    n, t, spec, seed = _check_streams_run(n, t, strategy, seed, trace_peak_bytes)
    columns = _columns(n, t, spec, primary_stream, secondary_stream)
    return _assemble_trace(n, t, spec, seed, *columns)


def run_reference(n, t, strategy, primary_stream, secondary_stream,
                  seed: int | None = None) -> Trace:
    """:func:`run_with_streams` by :func:`step`, one ball at a time, for
    checking: the same checks, trace and stream positions, and a check that
    the assembled trace holds the state and pool indices stepping reached.
    Its memory guard is :func:`_reference_peak_bytes`."""
    n, t, spec, seed = _check_streams_run(n, t, strategy, seed, _reference_peak_bytes)
    state = new_process(n, spec)
    primary_bins, final_bins, reject_counts, pool_indices = np.zeros((4, t), dtype=np.int64)
    for i in range(t):
        record = step(state, primary_stream, secondary_stream)
        primary_bins[i] = record.primary_bin - 1
        final_bins[i] = record.final_bin - 1
        reject_counts[i] = record.decisions.count("reject")
        pool_indices[i] = -1 if record.secondary_pool_index is None else record.secondary_pool_index
    trace = _assemble_trace(n, t, spec, seed, primary_bins, final_bins, reject_counts)
    if trace.final_state != state:
        raise AssertionError("columnar state assembly diverged from stepping")
    if not np.array_equal(trace.pool_indices, pool_indices):
        raise AssertionError("pool indices derived from reject counts diverged from stepping")
    return trace


def run(n: int, t: int, strategy, seed: int) -> Trace:
    """Deterministic run: trace is a pure function of (n, t, strategy, seed).

    The primary and secondary streams are derived from ``seed`` by index
    mixing, so the two are independent and the derivation is documented and
    portable.  It runs the kernel, through :func:`run_with_streams`.  A run
    whose :func:`trace_peak_bytes` exceeds ``MEMORY_BUDGET_BYTES`` raises
    ``ResourceLimitError`` before anything is allocated.
    """
    seed = _as_int(seed, "seed")
    return run_with_streams(n, t, strategy, *_seed_streams(seed), seed=seed)


def run_summary(n: int, t: int, strategy, seed: int) -> tuple[np.ndarray, int]:
    """Loads and rejection count of :func:`run`, skipping per-ball records.

    Returns ``(loads, rejections)``.  ``loads`` holds exactly the final
    per-bin loads of ``run(n, t, strategy, seed)``, in whatever integer
    dtype the kernel counted them in: one that holds every load, often
    uint8, and never int64 where a narrower type holds t.  So widen it
    before arithmetic that could leave that range; comparisons, ``max()``
    and ``tolist()`` are exact as they are.

    The one-seed case of :func:`_summary_groups`, which picks the kernel.
    A run whose :func:`summary_peak_bytes` exceeds ``MEMORY_BUDGET_BYTES``
    raises ``ResourceLimitError`` before anything is allocated.
    """
    n, t, spec = _check_run(n, t, strategy)
    seed = _as_int(seed, "seed")
    _check_budget(summary_peak_bytes(n, t, spec), f"a summary of {t} balls in {_shown(n)} bins")
    loads, rejections = next(_summary_groups(n, t, spec, [seed]))
    return loads[0], rejections[0]


def run_summary_batch(n: int, t: int, strategy, seeds: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Max load and rejection count of ``run_summary(n, t, strategy, seed)``
    for every seed, in seed order.

    The arguments, and the memory budget as :func:`run_summary` checks it,
    are checked when this is called; the runs are made as the result is
    iterated, by the kernel :func:`_summary_groups` picks.  ``seeds`` must
    be sized and sliceable, such as a list, a range or a numpy array: the
    check reads it once and the kernel again, and a grid takes slices.
    """
    n, t, spec = _check_run(n, t, strategy)
    try:
        len(seeds), seeds[:0]
    except (TypeError, KeyError):
        raise ConfigurationError(
            f"seeds must be a sized, sliceable sequence, not {type(seeds).__name__}"
        ) from None
    for seed in seeds:  # not copied, so a batch holds no list of seeds
        _as_int(seed, "seed")
    _check_budget(summary_peak_bytes(n, t, spec), f"a summary of {t} balls in {_shown(n)} bins")
    return _summaries(_summary_groups(n, t, spec, seeds))


def _summary_groups(n, t, spec, seeds):
    """The one choice of summary kernel: groups of consecutive seeds'
    runs, in order, shaped like those of ``counting._count_groups``.

    The counting kinds take that kernel's groups.  The others take one run
    per group from the placement kernel, without columns, keeping its load
    table and the sum of its chunks' reject totals (for two-choices, the
    count of moved balls; it builds no column of them).  The table is
    released before the next run draws.  No kernel holds a t-length array,
    nor more than one chunk at a time.
    """
    if _counts_draws(spec):
        yield from _count_groups(n, t, spec, seeds)
        return
    for seed in seeds:
        rejections = 0
        # Each kernel yields at least once, so loads is always bound.
        chunks = _placements(n, t, spec, *_seed_streams(seed), columns=False)
        for p, balls, landed, rejects, loads in chunks:
            rejections += rejects
            del p, balls, landed, rejects
        yield loads[None, :n], [rejections]
        del loads  # released before the next run draws


def summary_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory one :func:`run_summary` call, or one
    :func:`run_summary_batch` over any number of seeds, holds at once.

    Counted from the buffers each phase of a path keeps alive together,
    with the most rejections a run can have and the widest load table it
    can need (for two-choices, w.h.p.; see
    ``two_choices._two_choices_peak_bytes``); the bound is the largest
    phase, since a phase frees its temporaries before the next begins.  A
    two-choices summary holds no word per moved ball, only their count,
    so its yielded chunk is its bins and took mask, within the bound's
    placed phase.  The tests check it against ``tracemalloc`` for every
    kind and path, and for batches in both regimes of the counting kernel.
    """
    if _counts_draws(spec):
        return _count_peak_bytes(n, t, spec)
    return _placement_peak_bytes(n, t, spec)


def max_load(state: ProcessState, subset: Iterable[int] | None = None) -> int:
    """Maximum load over a 1-based bin subset (default: every bin)."""
    if subset is None:
        return int(state.load.max()) if state.t else 0
    indices = _subset_indices(state.n, subset)
    return int(state.load[indices].max())


def level_set_count(
    state: ProcessState,
    tally: str,
    level: int,
    subset: Iterable[int] | None = None,
) -> int:
    """How many bins of ``subset`` have ``tally`` at least ``level``.

    ``tally`` names one of the per-bin vectors: "load", "primary_suggested",
    "primary_accepted", or "secondary_used".
    """
    if tally not in _TALLY_FIELDS:
        known = ", ".join(_TALLY_FIELDS)
        raise ConfigurationError(f"unknown tally {tally!r}; expected one of: {known}")
    level = _as_int(level, "level", 0)
    values = getattr(state, tally)
    if subset is not None:
        values = values[_subset_indices(state.n, subset)]
    return int((values >= level).sum())


def _subset_indices(n: int, subset: Iterable[int]) -> np.ndarray:
    bins = sorted({_as_int(b, "bin subset entry") for b in subset})
    if not bins:
        raise ConfigurationError("bin subset must be non-empty")
    if bins[0] < 1 or bins[-1] > n:  # checked on the ints, before any int64 holds them
        raise ConfigurationError(f"bin subset must lie within 1..{n}")
    return np.asarray(bins, dtype=np.int64) - 1
