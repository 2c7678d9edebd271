"""The two-thinning allocation process engine: stepping, runs and summaries.

Each ball draws a uniform primary bin from the primary stream.  A thinning
strategy, seeing only the tallies so far and the suggestion, accepts or
rejects; a rejected ball lands at the next unconsumed draw of the secondary
pool.  With a retry budget k above 1, each fresh pool suggestion is put to
the strategy again, and after k rejections the next pool draw is forced.

Bins are 1-based in every public record and serialization, 0-based in the
tally arrays.

:func:`step` allocates one ball at a time and is the reference oracle.
:func:`run` and :func:`run_with_streams` go through one vectorized kernel,
:func:`_columns`, which yields bit-identical traces and stream positions.
It picks its path by the thinning level (``StrategySpec.level``): a rule at
level 0 or t, such as always-reject or one-choice, is drawn as blocks;
other levels, and two-choices, run the placement kernel that
:func:`_placements` picks, whose chunks ``_columns`` writes into three
preallocated columns.  :func:`run_summary` and :func:`run_summary_batch`
never build the columns: :func:`_summary_groups` counts the draws, or runs
a placement kernel and keeps only the loads and rejections, and
:func:`summary_peak_bytes` bounds what each kernel holds.  Each kernel
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
:class:`Trace`, :func:`trace_from_json`, :func:`replay` and
:func:`trace_peak_bytes`) lives in :mod:`thinlab.trace` and is re-exported
here.  The memory budget, ``MEMORY_BUDGET_BYTES``, lives in
:mod:`thinlab.errors`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .counting import _count_groups, _count_peak_bytes, _counts_draws, _seed_streams, _summaries
from .errors import ConfigurationError, _as_int, _check_budget
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
    replay,
    trace_from_json,
    trace_peak_bytes,
)
from .two_choices import _two_choices_kernel, _two_choices_peak_bytes


def _check_run(n, t, strategy) -> tuple[int, int, StrategySpec]:
    """The bin count, ball count and spec of a run, checked."""
    n = _as_int(n, "bin count", 1)
    return n, _as_int(t, "ball count", 0), parse_strategy(strategy, n=n)


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
    """
    spec = state.strategy
    n = state.n
    primary = primary_stream.next_bounded(n)
    ball_index = state.t + 1

    if spec.kind == TWO_CHOICES_GREEDY:
        candidate = secondary_stream.next_bounded(n)
        pool_index = state.t  # two-choices consumes one pool draw per ball
        chosen = two_choices_decide(state, primary, candidate)
        state.primary_suggested[primary] += 1
        state.load[chosen] += 1
        state.t += 1
        if chosen == primary:
            state.primary_accepted[primary] += 1
            return AllocationRecord(ball_index, primary + 1, ("accept",), primary + 1, None)
        state.secondary_used[chosen] += 1
        state.rejections += 1
        return AllocationRecord(
            ball_index, primary + 1, ("reject",), chosen + 1, pool_index
        )

    accept = decide(spec, state, primary)
    state.primary_suggested[primary] += 1
    if accept:
        state.primary_accepted[primary] += 1
        state.load[primary] += 1
        state.t += 1
        return AllocationRecord(ball_index, primary + 1, ("accept",), primary + 1, None)

    rejects = 1
    state.rejections += 1
    while True:
        pool_index = state.rejections - 1  # this rejection consumes this index
        fresh = secondary_stream.next_bounded(n)
        if rejects == spec.retry_budget:
            decisions = ("reject",) * rejects  # budget exhausted: forced landing
            break
        if decide(spec, state, fresh):
            decisions = ("reject",) * rejects + ("accept",)
            break
        rejects += 1
        state.rejections += 1
    state.secondary_used[fresh] += 1
    state.load[fresh] += 1
    state.t += 1
    return AllocationRecord(ball_index, primary + 1, decisions, fresh + 1, pool_index)

def _run_reference(n, t, spec, seed, primary_stream, secondary_stream) -> Trace:
    state = new_process(n, spec)
    primary_bins = np.zeros(t, dtype=np.int64)
    final_bins = np.zeros(t, dtype=np.int64)
    reject_counts = np.zeros(t, dtype=np.int64)
    pool_indices = np.full(t, -1, dtype=np.int64)
    for i in range(t):
        record = step(state, primary_stream, secondary_stream)
        primary_bins[i] = record.primary_bin - 1
        final_bins[i] = record.final_bin - 1
        reject_counts[i] = sum(1 for d in record.decisions if d == "reject")
        if record.secondary_pool_index is not None:
            pool_indices[i] = record.secondary_pool_index
    trace = _assemble_trace(n, t, spec, seed, primary_bins, final_bins, reject_counts)
    if trace.final_state != state:
        raise AssertionError("columnar state assembly diverged from stepping")
    if not np.array_equal(trace.pool_indices, pool_indices):
        raise AssertionError("pool indices derived from reject counts diverged from stepping")
    return trace


def _columns(n, t, spec, primary_stream, secondary_stream):
    """The vectorized kernel: per-ball columns of a run.

    Returns primary bins, final bins and reject counts, bit-identical to
    what :func:`step` records, and leaves both streams where it leaves them.
    A rule at level 0 or t rejects every ball or none; any other level, and
    two-choices, run the placement kernel, whose chunks are written at
    their offsets.
    """
    level = spec.level(t)
    if level in (0, t):
        primary_bins = primary_stream.bounded_block(n, t)
        final_bins = primary_bins.copy() if level else secondary_stream.bounded_block(n, t)
        return primary_bins, final_bins, np.full(t, not level, dtype=np.int64)
    primary_bins, final_bins = np.empty(t, dtype=np.int64), np.empty(t, dtype=np.int64)
    reject_counts = np.zeros(t, dtype=np.int64)
    begin = 0
    for p, balls, landed, rejects, _ in _placements(n, t, spec, primary_stream, secondary_stream):
        chunk = slice(begin, begin + p.size)
        primary_bins[chunk] = final_bins[chunk] = p
        final_bins[chunk][balls] = landed
        reject_counts[chunk][balls] = rejects
        begin += p.size
        del p, balls, landed, rejects  # not held while the kernel places the next chunk
    return primary_bins, final_bins, reject_counts


def _placements(n, t, spec, primary_stream, secondary_stream):
    """The one choice of placement kernel, for a run's chunks of 2**14 balls.

    Both kernels yield ``(p, balls, landed, rejects, loads)`` per chunk:
    its primary bins, the ascending chunk offsets of the balls that left
    their primary, their landing bins and int64 reject counts, and the load
    table, whose first n entries are the run's loads once the last chunk is
    yielded.  So neither holds a t-length array.
    """
    if spec.is_thinning:
        return _threshold_chunks(n, t, spec, primary_stream, secondary_stream)
    return _two_choices_kernel(n, t, primary_stream, secondary_stream)


def run_with_streams(n, t, strategy, primary_stream, secondary_stream,
                     seed: int | None = None, method: str = "reference") -> Trace:
    """Run ``t`` balls against caller-provided streams (e.g. preset draws).

    ``method`` is "reference" (step one ball at a time) or "auto" (the
    vectorized kernel, for every strategy).  Both paths give bit-identical
    traces and leave the streams in the same position.  ``seed`` only
    labels the trace; it may be None.  A run whose :func:`trace_peak_bytes`
    exceeds ``MEMORY_BUDGET_BYTES`` raises ``ResourceLimitError`` before
    anything is allocated or drawn.
    """
    n, t, spec = _check_run(n, t, strategy)
    if seed is not None:
        seed = _as_int(seed, "seed")
    _check_budget(trace_peak_bytes(n, t, spec), f"a trace of {t} balls in {n} bins")
    if method == "reference":
        return _run_reference(n, t, spec, seed, primary_stream, secondary_stream)
    if method != "auto":
        raise ConfigurationError(f"unknown method {method!r}; expected 'auto' or 'reference'")
    columns = _columns(n, t, spec, primary_stream, secondary_stream)
    return _assemble_trace(n, t, spec, seed, *columns)


def run(n: int, t: int, strategy, seed: int, method: str = "auto") -> Trace:
    """Deterministic run: trace is a pure function of (n, t, strategy, seed).

    The primary and secondary streams are derived from ``seed`` by index
    mixing, so the two are independent and the derivation is documented and
    portable.  ``method`` selects the execution path: "auto" uses the
    vectorized kernel for every strategy, "reference" steps one ball at a
    time.  Both produce bit-identical traces.  A run whose
    :func:`trace_peak_bytes` exceeds ``MEMORY_BUDGET_BYTES`` raises
    ``ResourceLimitError`` before anything is allocated.
    """
    seed = _as_int(seed, "seed")
    return run_with_streams(n, t, strategy, *_seed_streams(seed), seed=seed, method=method)


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
    _check_budget(summary_peak_bytes(n, t, spec), f"a summary of {t} balls in {n} bins")
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
    _check_budget(summary_peak_bytes(n, t, spec), f"a summary of {t} balls in {n} bins")
    return _summaries(_summary_groups(n, t, spec, seeds))


def _summary_groups(n, t, spec, seeds):
    """The one choice of summary kernel: groups of consecutive seeds'
    runs, in order, shaped like those of ``counting._count_groups``.

    The counting kinds take that kernel's groups.  The others take one run
    per group from the placement kernel, keeping its load table and the
    sum of its reject counts; the table is released before the next run
    draws.  No kernel holds a t-length array, nor more than one chunk at a
    time.
    """
    if _counts_draws(spec):
        yield from _count_groups(n, t, spec, seeds)
        return
    for seed in seeds:
        rejections = 0
        # Each kernel yields at least once, so loads is always bound.
        for p, balls, landed, rejects, loads in _placements(n, t, spec, *_seed_streams(seed)):
            rejections += int(rejects.sum())
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
    phase, since a phase frees its temporaries before the next begins.  The
    tests check it against ``tracemalloc`` for every kind and path, and for
    batches in both regimes of the counting kernel.
    """
    if _counts_draws(spec):
        return _count_peak_bytes(n, t, spec)
    if spec.is_thinning:
        return _threshold_peak_bytes(n, t, spec)
    return _two_choices_peak_bytes(n, t)


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
    indices = np.asarray(sorted(set(int(b) for b in subset)), dtype=np.int64)
    if indices.size == 0:
        raise ConfigurationError("bin subset must be non-empty")
    if indices.min() < 1 or indices.max() > n:
        raise ConfigurationError(f"bin subset must lie within 1..{n}")
    return indices - 1
