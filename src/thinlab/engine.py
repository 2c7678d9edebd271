"""The two-thinning allocation process engine.

Each ball draws a uniform primary bin from the primary stream.  A thinning
strategy, seeing only the tallies so far and the suggestion, accepts or
rejects; a rejected ball lands at the next unconsumed draw of the secondary
pool.  With a retry budget k above 1, each fresh pool suggestion is put to
the strategy again, and after k rejections the next pool draw is forced.

Bin indices are 1-based in every public record and serialization, matching
the usual bin-labeling convention; tally arrays are 0-indexed internally.

:func:`step` allocates one ball at a time and is the reference oracle.
:func:`run` and :func:`run_summary` go through one vectorized kernel,
:func:`_columns`, which draws blocks of balls and yields bit-identical
traces and stream positions (``run_summary`` skips it where counts of the
draws, or the two-choices kernel's loads, already give the final loads):

- one-choice, always-reject and threshold with retry budget 1: a ball's
  primary is rejected iff its occurrence index among the primaries is at
  least ell, and the rejected balls take consecutive pool draws;
- threshold with retry budget k > 1: the same primary decisions, then a
  scan over the rejected balls only, since a pool draw to bin b for ball j
  is accepted iff j comes before b's ell-th primary suggestion;
- two-choices (outside the thinning class: it sees both candidate bins,
  and consumes one secondary draw per ball): one chunk of ``_CHUNK`` balls
  at a time, drawn primaries first, then candidates, so the kernel holds
  no t-length array.  Per block of balls, an index pass finds the balls that no
  earlier ball of the block shares a bin with, and a load pass places all
  of them at once, then the block's other balls one by one in ball order.
  The kernel keeps loads in a uint8 table, widened once before any bin
  could pass 255, and yields per chunk a mask of the balls that took their
  secondary, from which ``run`` derives the final bins and ``run_summary``
  the rejections.

A :class:`Trace` stores three per-ball columns: primary bins, final bins
and reject counts.  Rejected balls take the secondary pool's draws in ball
order, so the pool index a ball consumes is derived from the reject counts
(:func:`_pool_indices`), never stored; ``replay``, ``to_json`` and
``records`` all work from the three columns, and :func:`_check_rejections`
is the one check that a strategy can yield them.

One-choice, always-reject and threshold with k = 1 have one counting
kernel (:mod:`thinlab.counting`) behind :func:`run_summary_batch`, of
which ``run_summary`` is the one-seed case.  Its regime follows from the
sizes:

- one load table for the whole batch when ``max(n, t)`` is above
  ``_CHUNK // 2`` (or for a single seed): each run zeroes it, streams its
  draws into it one chunk at a time, and caps only the bins above ell, so
  no t-length array is held.  The table starts as uint8; a run in which a
  bin passes 255 is counted again into a table of
  ``np.min_scalar_type(t)``, which the rest of the batch keeps;
- otherwise grids of ``_CHUNK // max(n, t)`` runs: the runs' streams are
  drawn as one uint64 grid and counted with one bincount, and a run that
  reads a rejected raw word is counted again on its own.

``run_summary`` returns the table it counted into, so its loads are exact
but often narrower than int64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, ResourceLimitError
from .counting import _count_groups, _count_peak_bytes, _counts_draws, _seed_streams, _summaries
from .rng import _CHUNK, _chunk_buffer_bytes
from .strategies import (
    ALWAYS_REJECT,
    THRESHOLD,
    TWO_CHOICES_GREEDY,
    StrategySpec,
    decide,
    parse_strategy,
    two_choices_decide,
)

_TALLY_FIELDS = ("load", "primary_suggested", "primary_accepted", "secondary_used")

# Most memory one run, trace or campaign may hold at once.
MEMORY_BUDGET_BYTES = 2 * 1024**3

# Balls in one block of the two-choices kernel.  Longer blocks leave more
# balls to its scalar tail, shorter ones pay more numpy calls: on a 2-vCPU
# Xeon, run_summary at n = t = 10**6 on the chunked kernel took 40-41 ms
# (medians 42-45) with 2**12, 43-46 ms (46-49) with 2**11 and 41-43 ms
# (42-46) with 2**13, best of 14 in two interleaved sweeps.
# Block offsets are held as uint16 below the sentinel _UNTOUCHED, so the
# block must stay below 2**16.
_TWO_CHOICES_BLOCK = 1 << 12
_UNTOUCHED = 0xFFFF

# Most rejected balls, and most pool draws, that the retry kernel's scan
# holds as Python lists at once.
_RETRY_SEGMENT = 1 << 16

# Bytes that trace_from_json holds per character of a payload as to_json
# writes it, besides the trace it builds: json.loads's objects (3.1 to 4.9
# bytes per character under tracemalloc, from bin-heavy to ball-heavy
# payloads) and the two lists of loads that it compares (16 bytes per bin,
# and a bin takes at least 3 characters).
_JSON_BYTES_PER_CHAR = 6


def _coerce_spec(strategy, n: int | None = None) -> StrategySpec:
    if isinstance(strategy, StrategySpec):
        return strategy
    if isinstance(strategy, str):
        return parse_strategy(strategy, n=n)
    raise ConfigurationError(
        f"strategy must be a StrategySpec or grammar string, got {strategy!r}"
    )


def _check_bin_count(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"bin count must be an integer, got {n!r}")
    if n < 1:
        raise ConfigurationError(f"bin count must be at least 1, got {n}")
    return int(n)


def _check_ball_count(t) -> int:
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or t < 0:
        raise ConfigurationError(f"ball count must be a non-negative integer, got {t!r}")
    return int(t)


@dataclass(eq=False)
class ProcessState:
    """Mutable tallies of one allocation process.

    ``load`` holds final per-bin loads, ``primary_suggested`` counts every
    primary suggestion (accepted or not), ``primary_accepted`` counts the
    accepted ones, ``secondary_used`` counts balls landed through the pool,
    and ``rejections`` counts individual reject decisions.
    """

    n: int
    strategy: StrategySpec
    t: int = 0
    load: np.ndarray = field(default=None)
    primary_suggested: np.ndarray = field(default=None)
    primary_accepted: np.ndarray = field(default=None)
    secondary_used: np.ndarray = field(default=None)
    rejections: int = 0

    def __post_init__(self):
        for name in _TALLY_FIELDS:
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.n, dtype=np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProcessState):
            return NotImplemented
        return (
            self.n == other.n
            and self.strategy == other.strategy
            and self.t == other.t
            and self.rejections == other.rejections
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in _TALLY_FIELDS
            )
        )


@dataclass(frozen=True)
class AllocationRecord:
    """One ball's allocation outcome.  Bin numbers are 1-based."""

    ball_index: int
    primary_bin: int
    decisions: tuple[str, ...]
    final_bin: int
    secondary_pool_index: int | None


def new_process(n: int, strategy) -> ProcessState:
    """Fresh zeroed process over ``n`` bins with the given strategy."""
    n = _check_bin_count(n)
    spec = _coerce_spec(strategy, n)
    return ProcessState(n=n, strategy=spec)


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


@dataclass(frozen=True)
class Trace:
    """Complete, replayable record of one run.

    Stored in columnar form: per-ball primary bins, final bins and reject
    counts.  Rejected balls take the secondary pool's draws in ball order,
    so the pool index each ball consumes follows from the reject counts
    (``pool_indices``).  ``records`` materializes the per-ball view on
    demand.
    """

    n: int
    t: int
    strategy: StrategySpec
    seed: int | None
    primary_bins: np.ndarray
    final_bins: np.ndarray
    reject_counts: np.ndarray
    final_state: ProcessState

    @property
    def loads(self) -> np.ndarray:
        return self.final_state.load

    @property
    def pool_indices(self) -> np.ndarray:
        """The pool index each ball consumes last, -1 where it was never rejected."""
        return _pool_indices(self.strategy.kind, self.reject_counts)

    def _decisions_for(self, reject_count: int) -> tuple[str, ...]:
        if reject_count == 0:
            return ("accept",)
        if self.strategy.kind == TWO_CHOICES_GREEDY:
            return ("reject",)
        if reject_count < self.strategy.retry_budget:
            return ("reject",) * reject_count + ("accept",)
        return ("reject",) * reject_count

    def _ball_columns(self):
        """Per ball, as Python values: the 1-based primary bin, the reject
        count, the 1-based final bin, and the pool index or None."""
        return zip(
            (self.primary_bins + 1).tolist(),
            self.reject_counts.tolist(),
            (self.final_bins + 1).tolist(),
            [None if i < 0 else i for i in self.pool_indices.tolist()],
        )

    @property
    def records(self) -> tuple[AllocationRecord, ...]:
        decisions = {c: self._decisions_for(c) for c in np.unique(self.reject_counts).tolist()}
        return tuple(
            AllocationRecord(ball, primary, decisions[count], final, pool_index)
            for ball, (primary, count, final, pool_index) in enumerate(self._ball_columns(), 1)
        )

    def to_json(self) -> str:
        """Serialize with stable field names; bins are 1-based.

        The output is exactly ``json.dumps`` of the payload, built from the
        columns with one decision fragment per distinct reject count.
        """
        head = json.dumps(
            {"n": self.n, "t": self.t, "strategy": self.strategy.label, "seed": self.seed}
        )
        fragments = {
            c: f', "decision": {json.dumps(list(self._decisions_for(c)))}, "final": '
            for c in np.unique(self.reject_counts).tolist()
        }
        records = ", ".join(
            f'{{"ball": {ball}, "primary": {primary}{fragments[count]}{final}, '
            f'"sec_idx": {"null" if pool_index is None else pool_index}}}'
            for ball, (primary, count, final, pool_index) in enumerate(self._ball_columns(), 1)
        )
        loads = json.dumps(self.final_state.load.tolist())
        return f'{head[:-1]}, "records": [{records}], "loads": {loads}}}'


def trace_from_json(text: str) -> Trace:
    """Rebuild a trace from its JSON form, re-deriving the final state.

    Every record's ``ball`` must be its 1-based position, its ``decision``
    the one its reject count allows, its ``final`` its ``primary`` unless it
    was rejected, and its ``sec_idx`` the pool index its reject counts give
    (see :func:`_check_rejections` and :attr:`Trace.pool_indices`); the
    embedded loads are checked against the replayed records.  So a
    corrupted or impossible payload is rejected with ``ConfigurationError``
    rather than silently trusted.

    A payload whose parse, at ``_JSON_BYTES_PER_CHAR`` bytes per character,
    would exceed ``MEMORY_BUDGET_BYTES`` raises ``ResourceLimitError``
    before it is parsed; one whose parse plus :func:`trace_peak_bytes` of
    the trace it describes would, raises it before any column is built.
    """
    parse_bytes = _JSON_BYTES_PER_CHAR * len(text)
    _check_json_budget(parse_bytes, len(text))
    try:
        payload = json.loads(text)
        n = payload["n"]
        t = payload["t"]
        strategy = parse_strategy(payload["strategy"], n=n)
        seed = payload["seed"]
        raw_records = payload["records"]
        loads = payload["loads"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed trace payload: {exc}") from None
    n = _check_bin_count(n)
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise ConfigurationError(f"trace payload ball count is invalid: {t!r}")
    if len(raw_records) != t or len(loads) != n:
        raise ConfigurationError("trace payload lengths disagree with n, t")
    _check_json_budget(parse_bytes + trace_peak_bytes(n, t, strategy), len(text))
    primary_bins = np.zeros(t, dtype=np.int64)
    final_bins = np.zeros(t, dtype=np.int64)
    reject_counts = np.zeros(t, dtype=np.int64)
    sec_idx = np.full(t, -1, dtype=np.int64)
    first_ball = {}  # each distinct decision list, and the first ball with it
    try:
        for i, row in enumerate(raw_records):
            ball = row["ball"]
            if type(ball) is not int or ball != i + 1:  # bools are not balls
                raise ValueError(f"record {i + 1} has ball {ball!r}")
            decision = tuple(row["decision"])
            first_ball.setdefault(decision, i)
            primary_bins[i] = row["primary"] - 1
            final_bins[i] = row["final"] - 1
            reject_counts[i] = decision.count("reject")
            pool_index = row["sec_idx"]
            if pool_index is not None:
                if type(pool_index) is not int or pool_index < 0:
                    raise ValueError(f"record {i + 1} has sec_idx {pool_index!r}")
                sec_idx[i] = pool_index
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed trace record: {exc}") from None
    if primary_bins.size and not (
        0 <= primary_bins.min() and primary_bins.max() < n
        and 0 <= final_bins.min() and final_bins.max() < n
    ):
        raise ConfigurationError(f"trace payload bin numbers must lie in 1..{n}")
    trace = _assemble_trace(n, t, strategy, seed, primary_bins, final_bins, reject_counts)
    wrong = [
        i for decision, i in first_ball.items()
        if decision != trace._decisions_for(int(reject_counts[i]))
    ]
    if wrong:
        i = min(wrong)
        raise ConfigurationError(
            f"ball {i + 1} has decision {list(raw_records[i]['decision'])}, "
            f"which no run of {strategy.label} records"
        )
    _check_rejections(trace)
    expected = trace.pool_indices
    wrong = np.flatnonzero(sec_idx != expected)
    if wrong.size:
        i = int(wrong[0])
        raise ConfigurationError(
            f"ball {i + 1} has sec_idx {raw_records[i]['sec_idx']}, but its rejects "
            f"give {None if expected[i] < 0 else int(expected[i])}"
        )
    if trace.final_state.load.tolist() != list(loads):
        raise ConfigurationError("trace payload loads disagree with its records")
    return trace


def _check_json_budget(needed: int, chars: int) -> None:
    if needed > MEMORY_BUDGET_BYTES:
        raise ResourceLimitError(
            f"a trace payload of {chars} characters needs about {needed} bytes, "
            f"beyond the budget of {MEMORY_BUDGET_BYTES}"
        )


def _pool_indices(kind: str, reject_counts: np.ndarray) -> np.ndarray:
    """The pool index each ball consumes last, -1 where it was never rejected.

    Thinning kinds take one pool draw per reject, so a ball's last one is
    the running reject total minus 1; two-choices draws a candidate for
    every ball, so a ball that takes it consumes its own index.
    """
    if kind == TWO_CHOICES_GREEDY:
        last = np.arange(len(reject_counts), dtype=np.int64)
    else:
        last = np.cumsum(reject_counts) - 1
    return np.where(reject_counts > 0, last, -1)


def _check_rejections(trace: Trace) -> None:
    """Raise ConfigurationError unless the strategy can yield these columns.

    A ball is rejected at most ``retry_budget`` times (once for
    two-choices), and a ball that was never rejected took no pool draw, so
    it lands at its primary.
    """
    counts = trace.reject_counts
    over = np.flatnonzero(counts > trace.strategy.retry_budget)
    if over.size:
        i = int(over[0])
        raise ConfigurationError(
            f"ball {i + 1} has {int(counts[i])} rejects, more than "
            f"{trace.strategy.label} allows"
        )
    moved = np.flatnonzero((counts == 0) & (trace.final_bins != trace.primary_bins))
    if moved.size:
        raise ConfigurationError(
            f"ball {int(moved[0]) + 1} landed away from its primary bin "
            "without a pool draw"
        )


def _assemble_trace(n, t, spec, seed, primary_bins, final_bins, reject_counts) -> Trace:
    """Build the Trace and its final state from columnar ball data."""
    state = ProcessState(n=n, strategy=spec, t=int(t), rejections=int(reject_counts.sum()))
    landed_secondary = reject_counts > 0
    state.primary_suggested += np.bincount(primary_bins, minlength=n)
    state.load += np.bincount(final_bins, minlength=n)
    state.secondary_used += np.bincount(final_bins[landed_secondary], minlength=n)
    state.primary_accepted += np.bincount(final_bins[~landed_secondary], minlength=n)
    return Trace(
        n=n,
        t=int(t),
        strategy=spec,
        seed=seed,
        primary_bins=primary_bins,
        final_bins=final_bins,
        reject_counts=reject_counts,
        final_state=state,
    )


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
    """
    if spec.kind == TWO_CHOICES_GREEDY:
        chunks = [
            (p, np.where(took, s, p), took)
            for p, s, took, _ in _two_choices_kernel(
                n, t, primary_stream, secondary_stream)
        ]
        primary_bins, final_bins, rejected = (np.concatenate(c) for c in zip(*chunks))
        return primary_bins, final_bins, rejected.astype(np.int64)
    primary_bins = primary_stream.bounded_block(n, t)
    if spec.kind == THRESHOLD:
        occurrence = _occurrence_index(primary_bins, n)
        rejected = occurrence >= spec.ell
        if spec.retry_budget > 1:
            return (primary_bins, *_retry_columns(
                n, spec, primary_bins, occurrence, rejected, secondary_stream))
    else:
        rejected = np.full(t, spec.kind == ALWAYS_REJECT)
    rejections = int(rejected.sum())
    final_bins = primary_bins.copy()
    final_bins[rejected] = secondary_stream.bounded_block(n, rejections)
    return primary_bins, final_bins, rejected.astype(np.int64)


def _retry_columns(n, spec, primary_bins, occurrence, rejected, secondary_stream):
    """Final bins and reject counts for retry budgets above 1.

    :func:`step` counts a ball's primary suggestion before it draws from
    the pool, so a pool draw to bin b made for ball j is accepted iff j
    comes before b's ell-th primary suggestion, ``cut[b]``.  Only rejected
    balls touch the pool; they take draws in ball order until one is
    accepted or k are used.  Every ball still unlanded needs at least one
    more draw, so drawing at most that many whenever the block runs out
    never takes a draw the reference would not.  The scan works through
    segments of ``_RETRY_SEGMENT`` rejected balls and pool blocks of at
    most as many draws, so its Python lists stay that short however many
    balls are rejected; the blocks themselves are kept as int64 arrays.
    """
    t = len(primary_bins)
    cut = np.full(n, t, dtype=np.int64)
    ell_th = occurrence == spec.ell - 1
    cut[primary_bins[ell_th]] = np.flatnonzero(ell_th)
    balls = np.flatnonzero(rejected)
    landing = np.empty(balls.size, dtype=np.int64)
    budget = spec.retry_budget
    blocks = []
    limits = []
    pos = base = 0  # the next pool index, and the pool index of limits[0]
    for start in range(0, balls.size, _RETRY_SEGMENT):
        segment = balls[start : start + _RETRY_SEGMENT].tolist()
        landed = []
        for i, ball in enumerate(segment, start):
            stop = pos + budget
            while True:
                if pos == base + len(limits):
                    base = pos
                    more = secondary_stream.bounded_block(
                        n, min(balls.size - i, _RETRY_SEGMENT))
                    blocks.append(more)
                    limits = cut[more].tolist()
                pos += 1
                if pos == stop or ball < limits[pos - 1 - base]:
                    break
            landed.append(pos - 1)
        landing[start : start + len(segment)] = landed
    final_bins = primary_bins.copy()
    if blocks:
        final_bins[balls] = np.concatenate(blocks)[landing]
    reject_counts = np.zeros(t, dtype=np.int64)
    reject_counts[balls] = np.diff(landing, prepend=-1)
    return final_bins, reject_counts


def _two_choices_kernel(n, t, primary_stream, secondary_stream):
    """Two-choices placement, drawn and placed one chunk of balls at a time.

    A generator: for each chunk of ``_CHUNK`` balls it draws the primary
    chunk, then the candidate chunk, places the chunk's balls and yields
    ``(p, s, took, load)``: the chunk's primary and candidate bins, a bool
    per ball that is True where the ball took its candidate, and the load
    table so far, whose first n entries are the loads.  It yields once, an
    empty chunk, when t is 0.  Each stream is read in chunks exactly as one
    block draw of t would read it, so draws and stream positions match
    :func:`step`.  A ball moves only when the candidate's load is strictly
    lower, so ``took`` is exactly ``final_bins != primary_bins`` and the
    landing bin is ``s[i] if took[i] else p[i]``.

    Each chunk takes two passes over its blocks of ``_TWO_CHOICES_BLOCK``
    balls.  The index pass finds the ready balls: ``first[b]`` is the block
    offset of the first ball of the block that touches bin b (``_UNTOUCHED``
    when none), and a ball that is the first toucher of both its bins is
    ready.  Ready balls share no bin with each other or with any earlier
    ball of the block, so the load pass places all of them at once with the
    loads that sequential placement would show them: it gathers both loads
    of every ball of the block and scatters ``min(lp, ls) + 1``, sending the
    waiting balls to the sink bin n, which no ball reads.  The block's
    waiting balls are then placed one by one in ball order, through a
    memoryview of ``load``.

    ``load`` starts as uint8, so the table of a million bins fits in L2.
    ``top`` is an upper bound on the loads so far: a ready step raises a bin
    by at most 1, and the tail by at most the number of waiting balls, so
    ``load`` is widened once, to the narrowest type that holds t, before a
    step that could pass 255.
    """
    wide = np.min_scalar_type(t)
    load = np.zeros(n + 1, dtype=np.uint8)
    top = 0
    first = np.full(n, _UNTOUCHED, dtype=np.uint16)
    offsets = np.arange(_TWO_CHOICES_BLOCK, dtype=np.uint16)
    ready = np.empty(min(t, _CHUNK), dtype=bool)
    for begin in range(0, max(t, 1), _CHUNK):
        m = min(t - begin, _CHUNK)
        p = primary_stream.bounded_block(n, m)
        s = secondary_stream.bounded_block(n, m)
        took = np.empty(m, dtype=bool)
        blocks = [slice(start, min(start + _TWO_CHOICES_BLOCK, m))
                  for start in range(0, m, _TWO_CHOICES_BLOCK)]
        for block in blocks:
            bp, bs = p[block], s[block]
            local = offsets[: len(bp)]
            np.minimum.at(first, bp, local)
            np.minimum.at(first, bs, local)
            np.equal(first[bp], local, out=ready[block])
            ready[block] &= first[bs] == local
            first[bp] = _UNTOUCHED
            first[bs] = _UNTOUCHED
        for block in blocks:
            bp, bs, bt = p[block], s[block], took[block]
            if top == 255 and load.dtype != wide:
                load = load.astype(wide)
            lp, ls = load[bp], load[bs]
            np.less(ls, lp, out=bt)
            target = np.where(bt, bs, bp)
            waiting = np.flatnonzero(~ready[block])
            target[waiting] = n
            np.minimum(lp, ls, out=lp)
            lp += 1
            load[target] = lp
            top = max(top, int(lp.max()))
            if top + waiting.size > 255 and load.dtype != wide:
                load = load.astype(wide)
            view = memoryview(load)
            flags = []
            for a, b in zip(bp[waiting].tolist(), bs[waiting].tolist()):
                la = view[a]
                lb = view[b]
                if lb < la:
                    a = b
                    la = lb
                    flags.append(True)
                else:
                    flags.append(False)
                la += 1
                view[a] = la
                if la > top:
                    top = la
            bt[waiting] = flags
        yield p, s, took, load


def run_with_streams(n, t, strategy, primary_stream, secondary_stream,
                     seed: int | None = None, method: str = "reference") -> Trace:
    """Run ``t`` balls against caller-provided streams (e.g. preset draws).

    ``method`` is "reference" (step one ball at a time) or "auto" (the
    vectorized kernel, for every strategy).  Both paths give bit-identical
    traces and leave the streams in the same position.
    """
    n = _check_bin_count(n)
    spec = _coerce_spec(strategy, n)
    t = _check_ball_count(t)
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
    n = _check_bin_count(n)
    spec = _coerce_spec(strategy, n)
    t = _check_ball_count(t)
    needed = trace_peak_bytes(n, t, spec)
    if needed > MEMORY_BUDGET_BYTES:
        raise ResourceLimitError(
            f"a trace of {t} balls in {n} bins needs about {needed} bytes, "
            f"beyond the budget of {MEMORY_BUDGET_BYTES}"
        )
    return run_with_streams(n, t, spec, *_seed_streams(seed), seed=seed, method=method)


def run_summary(n: int, t: int, strategy, seed: int) -> tuple[np.ndarray, int]:
    """Loads and rejection count of :func:`run`, skipping per-ball records.

    Returns ``(loads, rejections)``.  ``loads`` holds exactly the final
    per-bin loads of ``run(n, t, strategy, seed)``, in whatever integer
    dtype the path counted them in: one that holds every load, often uint8,
    and never int64 where a narrower type holds t.  So widen it before
    arithmetic that could leave that range; comparisons, ``max()`` and
    ``tolist()`` are exact as they are.

    One-choice, always-reject and threshold with k = 1 are the one-seed
    case of :func:`run_summary_batch`'s counting kernel.  Two-choices takes
    the load table its kernel keeps (one chunk of draws at a time; per block
    of balls, one vectorized round, then a scalar pass over the block's
    balls that share a bin with an earlier one) and counts the balls its
    masks mark as moved to their secondary.  None of these holds a t-length
    array.  Retry budgets above 1 count the final bins of the vectorized
    kernel into int64 loads.
    """
    n = _check_bin_count(n)
    spec = _coerce_spec(strategy, n)
    t = _check_ball_count(t)
    if _counts_draws(spec):
        loads, rejections = next(_count_groups(n, t, spec, [seed]))
        return loads[0], rejections[0]
    if spec.kind == TWO_CHOICES_GREEDY:
        rejections = 0
        # The kernel yields at least once, so load is always bound.
        for _, _, took, load in _two_choices_kernel(n, t, *_seed_streams(seed)):
            rejections += int(np.count_nonzero(took))
        return load[:n], rejections
    _, final_bins, reject_counts = _columns(n, t, spec, *_seed_streams(seed))
    return np.bincount(final_bins, minlength=n), int(reject_counts.sum())


def run_summary_batch(
    n: int, t: int, strategy, seeds: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """Max load and rejection count of ``run_summary(n, t, strategy, seed)``
    for every seed, in seed order, from one counting kernel.

    For one-choice, always-reject and threshold with k = 1 only; other
    strategies raise ``ConfigurationError``.  The arguments are checked when
    this is called; the runs are made as the result is iterated.  The
    kernel picks its regime from the sizes (``counting._count_groups``):
    one load table for the whole batch when ``max(n, t)`` is above
    ``_CHUNK // 2``, else grids of ``_CHUNK // max(n, t)`` runs at a time.
    """
    n = _check_bin_count(n)
    spec = _coerce_spec(strategy, n)
    t = _check_ball_count(t)
    if not _counts_draws(spec):
        raise ConfigurationError(
            f"run_summary_batch counts one-choice, always-reject and threshold "
            f"runs with retry budget 1, not {spec.label}"
        )
    return _summaries(n, t, spec, seeds)


def summary_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory one :func:`run_summary` call, or one
    :func:`run_summary_batch` over any number of seeds, holds at once.

    Counted from the buffers each phase of a path keeps alive together,
    with the most rejections a run can have and the widest load table it
    can need; the bound is the largest phase, since a phase frees its
    temporaries before the next begins.  The tests check it against
    ``tracemalloc`` for every kind, for the counting kinds on the path
    that counts again into a wide table too, and for batches in both
    regimes of the counting kernel.
    """
    w = np.min_scalar_type(t).itemsize  # bytes per bin of a table that holds t
    if spec.kind == THRESHOLD and spec.retry_budget > 1:
        # In words.  _occurrence_index holds the bins and at most five
        # t-word arrays and two masks, fewer than the retry scan.  At its end
        # the scan holds the bins, occurrences, the rejected balls and their
        # landings, final bins, a gather by landing, two masks, cut (n), and
        # the pool draws twice over, the blocks and their concatenation (k
        # per ball); every ball rejected at worst.  Its Python lists and a
        # cut lookup add at most 16 words per _RETRY_SEGMENT entry.  A pool
        # draw's chunk buffers (at most 17 bytes per draw) are freed before
        # that end, which holds 2 + k more words per ball.
        k = spec.retry_budget
        return 8 * ((6 + 2 * k) * t + t // 4 + 1 + n + 16 * _RETRY_SEGMENT)
    if spec.kind != TWO_CHOICES_GREEDY:
        return _count_peak_bytes(n, t, spec)
    # Two-choices draws and places one chunk at a time: c balls in the
    # first, c2 in the second, and no later chunk is longer.  At most 16 KiB
    # of Python objects in every phase (the generator, its block slices and
    # array headers).  The kernel holds first (uint16 per bin), the load
    # table of n + 1 bins at w bytes once widened, and the block offsets.
    # - Drawing a chunk's candidates: the ready mask, the new primary chunk,
    #   the block being drawn and its chunk buffers; from the second chunk
    #   on, also the previous chunk's bins and took mask, and the last
    #   block's temporaries (at most 6 words per block ball).
    # - Placing a chunk: its bins and masks, the previous candidates and
    #   mask that the caller still holds, the uint8 table beside its widened
    #   copy, and a block's temporaries with the Python lists of its waiting
    #   balls (at most 17 words per block ball).
    # run_summary returns a view of the table, so returning holds less.
    c = min(t, _CHUNK)
    c2 = min(t - c, _CHUNK)
    block = _TWO_CHOICES_BLOCK

    def drawing(m):  # a chunk's primaries, the block being drawn, its buffers
        return 16 * m + _chunk_buffer_bytes(n, m)

    tables = 2 * n + (n + 1) * w + 2 * block
    return 16 * 1024 + tables + max(
        max(c + drawing(c), 18 * c + 48 * block + drawing(c2)),
        (n + 1) + max(18 * c, 10 * c + 17 * c2) + 136 * block,
    )


def trace_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory one :func:`run` call holds at once.

    Counted like :func:`summary_peak_bytes`, in words, as the largest phase
    of ``_columns`` and then of ``_assemble_trace``, with the most
    rejections a run can have, plus 16 KiB of Python objects.  The tests
    check it against ``tracemalloc`` for every kind.
    """
    draw = -(-_chunk_buffer_bytes(n, t) // 8)
    mask = t // 8 + 1  # a bool per ball
    if spec.kind == TWO_CHOICES_GREEDY:
        # The kernel's buffers beside the chunks kept so far (primary bins,
        # final bins and took mask, and at most 1 KiB of array headers and a
        # tuple per chunk); then, beside those chunks, their concatenation
        # and the int64 reject counts.
        kept = 2 * t + mask + 128 * -(-t // _CHUNK)
        columns = max(kept + summary_peak_bytes(n, t, spec) // 8, 2 * kept + t)
    elif spec.kind == THRESHOLD and spec.retry_budget > 1:
        # run_summary runs _columns whole and then only counts final bins.
        columns = summary_peak_bytes(n, t, spec) // 8
    else:
        # The primary bins, the occurrences (threshold only), the rejected
        # mask, the final bins and the pool block (at most t draws, with its
        # draw buffers); at the end, the int64 reject counts in place of the
        # block.  _occurrence_index holds the bins, five t-word arrays and
        # two masks.
        occurrence = t if spec.kind == THRESHOLD else 0
        columns = 3 * t + mask + occurrence + draw
        if spec.kind == THRESHOLD:
            columns = max(columns, 6 * t + 2 * mask)
    # _assemble_trace: the three columns, four n-word tallies, one bincount
    # at a time, the landed mask and its complement, and a gather of the
    # final bins on one side of it.
    assembly = 4 * t + 2 * mask + 5 * n
    return 8 * max(columns, assembly) + 16 * 1024


def replay(trace: Trace) -> ProcessState:
    """Re-derive a trace's final state from its columns.

    The reconstruction must match ``trace.final_state`` exactly; callers
    use this as the integrity check for stored or transmitted traces.  A
    trace whose columns its strategy cannot produce (see
    :func:`_check_rejections`) raises ``ConfigurationError``.
    """
    _check_rejections(trace)
    return _assemble_trace(
        trace.n, trace.t, trace.strategy, trace.seed,
        trace.primary_bins, trace.final_bins, trace.reject_counts,
    ).final_state


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
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)) or level < 0:
        raise ConfigurationError(f"level must be a non-negative integer, got {level!r}")
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
