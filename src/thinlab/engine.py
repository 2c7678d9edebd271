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
:func:`_columns`, which draws whole blocks and yields bit-identical traces
and stream positions (``run_summary`` skips it where counts of the draw
blocks, or the two-choices peeling loads, already give the final loads):

- one-choice, always-reject and threshold with retry budget 1: a ball's
  primary is rejected iff its occurrence index among the primaries is at
  least ell, and the rejected balls take consecutive pool draws;
- threshold with retry budget k > 1: the same primary decisions, then a
  scan over the rejected balls only, since a pool draw to bin b for ball j
  is accepted iff j comes before b's ell-th primary suggestion;
- two-choices (outside the thinning class: it sees both candidate bins,
  and consumes one secondary draw per ball): peeling rounds over blocks of
  balls, each round placing at once every ball that no earlier unplaced
  ball of its block shares a bin with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .rng import _CHUNK, RngStream, mix_seeds
from .strategies import (
    ALWAYS_ACCEPT,
    ALWAYS_REJECT,
    THRESHOLD,
    TWO_CHOICES_GREEDY,
    StrategySpec,
    decide,
    parse_strategy,
    two_choices_decide,
)

_TALLY_FIELDS = ("load", "primary_suggested", "primary_accepted", "secondary_used")

# Most balls in one peeling block of the two-choices kernel (a block never
# holds more balls than there are bins, or its rounds grow with t / n).
# Short blocks keep the per-bin lookups in cache: on a 2-vCPU Xeon, the
# kernel took 79-92 ms at n = t = 10**6 with 2**12 and 157-175 ms with 2**17.
_TWO_CHOICES_BLOCK = 1 << 12

# Most rejected balls, and most pool draws, that the retry kernel's scan
# holds as Python lists at once.
_RETRY_SEGMENT = 1 << 16


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

    def copy(self) -> "ProcessState":
        return ProcessState(
            n=self.n,
            strategy=self.strategy,
            t=self.t,
            load=self.load.copy(),
            primary_suggested=self.primary_suggested.copy(),
            primary_accepted=self.primary_accepted.copy(),
            secondary_used=self.secondary_used.copy(),
            rejections=self.rejections,
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

    Stored in columnar form: per-ball primary bins, final bins, reject
    counts, and consumed pool indices (-1 where a ball landed at its
    primary).  ``records`` materializes the per-ball view on demand.
    """

    n: int
    t: int
    strategy: StrategySpec
    seed: int | None
    primary_bins: np.ndarray
    final_bins: np.ndarray
    reject_counts: np.ndarray
    pool_indices: np.ndarray
    final_state: ProcessState

    @property
    def loads(self) -> np.ndarray:
        return self.final_state.load

    def _decisions_for(self, reject_count: int) -> tuple[str, ...]:
        if reject_count == 0:
            return ("accept",)
        if self.strategy.kind == TWO_CHOICES_GREEDY:
            return ("reject",)
        if reject_count < self.strategy.retry_budget:
            return ("reject",) * reject_count + ("accept",)
        return ("reject",) * reject_count

    @property
    def records(self) -> tuple[AllocationRecord, ...]:
        out = []
        for i in range(self.t):
            pool_index = int(self.pool_indices[i])
            out.append(
                AllocationRecord(
                    ball_index=i + 1,
                    primary_bin=int(self.primary_bins[i]) + 1,
                    decisions=self._decisions_for(int(self.reject_counts[i])),
                    final_bin=int(self.final_bins[i]) + 1,
                    secondary_pool_index=None if pool_index < 0 else pool_index,
                )
            )
        return tuple(out)

    def to_json(self) -> str:
        """Serialize with stable field names; bins are 1-based."""
        records = [
            {
                "ball": record.ball_index,
                "primary": record.primary_bin,
                "decision": list(record.decisions),
                "final": record.final_bin,
                "sec_idx": record.secondary_pool_index,
            }
            for record in self.records
        ]
        payload = {
            "n": self.n,
            "t": self.t,
            "strategy": self.strategy.label,
            "seed": self.seed,
            "records": records,
            "loads": self.final_state.load.tolist(),
        }
        return json.dumps(payload)


def trace_from_json(text: str) -> Trace:
    """Rebuild a trace from its JSON form, re-deriving the final state.

    The embedded loads are checked against the replayed records, so a
    corrupted payload is rejected rather than silently trusted.
    """
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
    primary_bins = np.zeros(t, dtype=np.int64)
    final_bins = np.zeros(t, dtype=np.int64)
    reject_counts = np.zeros(t, dtype=np.int64)
    pool_indices = np.full(t, -1, dtype=np.int64)
    try:
        for i, row in enumerate(raw_records):
            primary_bins[i] = row["primary"] - 1
            final_bins[i] = row["final"] - 1
            reject_counts[i] = sum(1 for d in row["decision"] if d == "reject")
            pool_indices[i] = -1 if row["sec_idx"] is None else row["sec_idx"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed trace record: {exc}") from None
    if primary_bins.size and not (
        0 <= primary_bins.min() and primary_bins.max() < n
        and 0 <= final_bins.min() and final_bins.max() < n
    ):
        raise ConfigurationError(f"trace payload bin numbers must lie in 1..{n}")
    trace = _assemble_trace(
        n, t, strategy, seed, primary_bins, final_bins, reject_counts, pool_indices
    )
    if trace.final_state.load.tolist() != list(loads):
        raise ConfigurationError("trace payload loads disagree with its records")
    return trace


def _assemble_trace(n, t, spec, seed, primary_bins, final_bins, reject_counts,
                    pool_indices) -> Trace:
    """Build the Trace and its final state from columnar ball data."""
    state = ProcessState(n=n, strategy=spec)
    landed_secondary = pool_indices >= 0
    state.primary_suggested += np.bincount(primary_bins, minlength=n)
    state.load += np.bincount(final_bins, minlength=n)
    state.secondary_used += np.bincount(final_bins[landed_secondary], minlength=n)
    state.primary_accepted += np.bincount(final_bins[~landed_secondary], minlength=n)
    state.t = int(t)
    state.rejections = int(reject_counts.sum())
    return Trace(
        n=n,
        t=int(t),
        strategy=spec,
        seed=seed,
        primary_bins=primary_bins,
        final_bins=final_bins,
        reject_counts=reject_counts,
        pool_indices=pool_indices,
        final_state=state,
    )


def _occurrence_index(values: np.ndarray) -> np.ndarray:
    """occ[i] = how many earlier entries equal values[i] (vectorized)."""
    t = len(values)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    positions = np.arange(t, dtype=np.int64)
    run_start = np.ones(t, dtype=bool)
    run_start[1:] = sorted_values[1:] != sorted_values[:-1]
    start_positions = np.maximum.accumulate(np.where(run_start, positions, 0))
    occurrence = np.empty(t, dtype=np.int64)
    occurrence[order] = positions - start_positions
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
    trace = _assemble_trace(
        n, t, spec, seed, primary_bins, final_bins, reject_counts, pool_indices
    )
    if trace.final_state != state:
        raise AssertionError("columnar state assembly diverged from stepping")
    return trace


def _columns(n, t, spec, primary_stream, secondary_stream):
    """The vectorized kernel: per-ball columns of a run.

    Returns primary bins, final bins, reject counts and consumed pool
    indices (-1 where a ball landed at its primary), bit-identical to what
    :func:`step` records, and leaves both streams where it leaves them.
    """
    primary_bins = primary_stream.bounded_block(n, t)
    if spec.kind == TWO_CHOICES_GREEDY:
        candidates = secondary_stream.bounded_block(n, t)
        final_bins, _ = _two_choices_final_bins(n, primary_bins, candidates)
        rejected = final_bins != primary_bins  # a tie goes to the primary
        pool_indices = np.where(rejected, np.arange(t, dtype=np.int64), -1)
        return primary_bins, final_bins, rejected.astype(np.int64), pool_indices
    if spec.kind == THRESHOLD:
        occurrence = _occurrence_index(primary_bins)
        rejected = occurrence >= spec.ell
        if spec.retry_budget > 1:
            return (primary_bins, *_retry_columns(
                n, spec, primary_bins, occurrence, rejected, secondary_stream))
    else:
        rejected = np.full(t, spec.kind == ALWAYS_REJECT)
    rejections = int(rejected.sum())
    final_bins = primary_bins.copy()
    final_bins[rejected] = secondary_stream.bounded_block(n, rejections)
    pool_indices = np.full(t, -1, dtype=np.int64)
    pool_indices[rejected] = np.arange(rejections, dtype=np.int64)
    return primary_bins, final_bins, rejected.astype(np.int64), pool_indices


def _retry_columns(n, spec, primary_bins, occurrence, rejected, secondary_stream):
    """Final bins, reject counts and pool indices for retry budgets above 1.

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
    pool_indices = np.full(t, -1, dtype=np.int64)
    pool_indices[balls] = landing
    return final_bins, reject_counts, pool_indices


def _two_choices_final_bins(n, primary_bins, candidates):
    """Two-choices landing bins and final loads by peeling rounds.

    A ball is ready when no earlier unplaced ball of its block touches
    either of its bins; ready balls share no bins, so a whole round is
    placed at once with the loads that sequential placement would see.
    ``first[b]`` is the first unplaced ball of the block touching bin b
    (``t`` when none), rebuilt each round.
    """
    t = len(primary_bins)
    load = np.zeros(n, dtype=np.int64)
    final_bins = np.empty(t, dtype=np.int64)
    first = np.full(n, t, dtype=np.int64)
    block = min(_TWO_CHOICES_BLOCK, n)
    for start in range(0, t, block):
        stop = min(start + block, t)
        balls = np.arange(start, stop, dtype=np.int64)
        p = primary_bins[start:stop]
        s = candidates[start:stop]
        while balls.size:
            np.minimum.at(first, p, balls)
            np.minimum.at(first, s, balls)
            ready = (first[p] == balls) & (first[s] == balls)
            first[p] = t
            first[s] = t
            ready_p, ready_s, ready_balls = p[ready], s[ready], balls[ready]
            waiting = ~ready
            balls, p, s = balls[waiting], p[waiting], s[waiting]
            chosen = np.where(load[ready_s] < load[ready_p], ready_s, ready_p)
            load[chosen] += 1
            final_bins[ready_balls] = chosen
    return final_bins, load


def run_with_streams(n, t, strategy, primary_stream, secondary_stream,
                     seed: int | None = None, method: str = "reference") -> Trace:
    """Run ``t`` balls against caller-provided streams (e.g. preset draws).

    ``method`` is "reference" (step one ball at a time), or "vectorized" or
    "auto" (the vectorized kernel, for every strategy).  Both paths give
    bit-identical traces and leave the streams in the same position.
    """
    n = _check_bin_count(n)
    spec = _coerce_spec(strategy, n)
    if not isinstance(t, (int, np.integer)) or isinstance(t, bool) or t < 0:
        raise ConfigurationError(f"ball count must be a non-negative integer, got {t!r}")
    t = int(t)
    if method == "reference":
        return _run_reference(n, t, spec, seed, primary_stream, secondary_stream)
    if method not in ("auto", "vectorized"):
        raise ConfigurationError(
            f"unknown method {method!r}; expected 'auto', 'reference' or 'vectorized'"
        )
    columns = _columns(n, t, spec, primary_stream, secondary_stream)
    return _assemble_trace(n, t, spec, seed, *columns)


def run(n: int, t: int, strategy, seed: int, method: str = "auto") -> Trace:
    """Deterministic run: trace is a pure function of (n, t, strategy, seed).

    The primary and secondary streams are derived from ``seed`` by index
    mixing, so the two are independent and the derivation is documented and
    portable.  ``method`` selects the execution path: "auto" and
    "vectorized" use the vectorized kernel for every strategy, "reference"
    steps one ball at a time.  All paths produce bit-identical traces.
    """
    n = _check_bin_count(n)
    spec = _coerce_spec(strategy, n)
    primary_stream = RngStream(mix_seeds(seed, 0))
    secondary_stream = RngStream(mix_seeds(seed, 1))
    return run_with_streams(
        n, t, spec, primary_stream, secondary_stream, seed=seed, method=method
    )


def run_summary(n: int, t: int, strategy, seed: int) -> tuple[np.ndarray, int]:
    """Loads and rejection count of :func:`run`, skipping per-ball records.

    For retry-budget-1 thinning strategies the loads depend on the draw
    blocks only through tallies, so this path is pure counting arithmetic.
    Two-choices takes the loads its peeling kernel keeps, and retry budgets
    above 1 count the final bins of the vectorized kernel.  Either way it
    returns exactly the final loads and rejections the full trace would.
    """
    n = _check_bin_count(n)
    spec = _coerce_spec(strategy, n)
    if not isinstance(t, (int, np.integer)) or isinstance(t, bool) or t < 0:
        raise ConfigurationError(f"ball count must be a non-negative integer, got {t!r}")
    t = int(t)
    primary_stream = RngStream(mix_seeds(seed, 0))
    secondary_stream = RngStream(mix_seeds(seed, 1))
    if spec.kind == ALWAYS_ACCEPT:
        return np.bincount(primary_stream.bounded_block(n, t), minlength=n), 0
    if spec.kind == ALWAYS_REJECT:
        # The loads come from the pool alone, and the primary stream is
        # discarded here, so its draws are skipped.
        return np.bincount(secondary_stream.bounded_block(n, t), minlength=n), t
    if spec.kind == THRESHOLD and spec.retry_budget == 1:
        # A bin keeps min(suggested, ell) primaries; the rest are rejected.
        loads = np.bincount(primary_stream.bounded_block(n, t), minlength=n)
        np.minimum(loads, spec.ell, out=loads)
        rejections = t - int(loads.sum())
        # Few balls are rejected at the usual ell, so counting them in place
        # beats an n-length bincount, and it is no slower when most are.
        np.add.at(loads, secondary_stream.bounded_block(n, rejections), 1)
        return loads, rejections
    if spec.kind == TWO_CHOICES_GREEDY:
        primary_bins = primary_stream.bounded_block(n, t)
        candidates = secondary_stream.bounded_block(n, t)
        final_bins, loads = _two_choices_final_bins(n, primary_bins, candidates)
        return loads, t - int(np.count_nonzero(final_bins == primary_bins))
    _, final_bins, reject_counts, _ = _columns(n, t, spec, primary_stream, secondary_stream)
    return np.bincount(final_bins, minlength=n), int(reject_counts.sum())


def summary_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory one :func:`run_summary` call holds at once.

    Counted in 8-byte words from the buffers each path keeps alive together
    (a bool array counts as t / 8 words), with the most rejections a run
    can have; the tests check it against ``tracemalloc`` for every kind.
    """
    # bounded_block's two chunk buffers, plus an index and a gathered copy
    # on a chunk with a rejected word.
    words = 4 * min(t, _CHUNK)
    if spec.kind in (ALWAYS_ACCEPT, ALWAYS_REJECT):
        words += t + n  # one draw block and its bincount
    elif spec.kind == THRESHOLD and spec.retry_budget == 1:
        # The primary block and its bincount, then the loads and the pool
        # block (at most t draws), which np.add.at counts in place.
        words += t + n
    elif spec.kind == THRESHOLD:
        # _occurrence_index holds at most seven t-word arrays and a mask.
        # The retry scan holds the bins, occurrences, two masks and cut
        # (n); per rejected ball its index, landing and up to k pool draws;
        # then final bins, the concatenated pool and a gather; every ball
        # rejected at worst.  Its Python lists and a cut lookup add at most
        # 16 words per _RETRY_SEGMENT entry.
        k = spec.retry_budget
        words += (7 + 2 * k) * t + n + 16 * _RETRY_SEGMENT
    else:
        # Two-choices: both draw blocks, final bins, load and first (n
        # each), and either a peeling block's temporaries or the bool mask
        # that counts the balls landed at their primary.
        words += 3 * t + 2 * n + max(16 * _TWO_CHOICES_BLOCK, t // 8 + 1)
    return 8 * words


def replay(trace: Trace) -> ProcessState:
    """Re-apply a trace's records to a fresh state and return the result.

    The reconstruction must match ``trace.final_state`` exactly; callers
    use this as the integrity check for stored or transmitted traces.
    """
    state = new_process(trace.n, trace.strategy)
    for record in trace.records:
        primary = record.primary_bin - 1
        final = record.final_bin - 1
        state.primary_suggested[primary] += 1
        state.load[final] += 1
        if record.secondary_pool_index is None:
            if record.final_bin != record.primary_bin:
                raise ConfigurationError(
                    f"ball {record.ball_index} landed away from its primary "
                    "bin without a pool draw"
                )
            state.primary_accepted[final] += 1
        else:
            state.secondary_used[final] += 1
        state.rejections += sum(1 for d in record.decisions if d == "reject")
        state.t += 1
    return state


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
