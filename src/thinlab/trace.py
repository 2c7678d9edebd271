"""What a run records: process state, per-ball records and traces.

A :class:`ProcessState` holds the per-bin tallies of one allocation
process, and an :class:`AllocationRecord` one ball's outcome.  A
:class:`Trace` stores three per-ball columns: primary bins, final bins and
reject counts.  Rejected balls take the secondary pool's draws in ball
order, so the pool index a ball consumes is derived from the reject counts
(:attr:`Trace.pool_indices`), never stored; :func:`replay`,
:meth:`Trace.to_json` and :attr:`Trace.records` all work from the three
columns, :func:`_assemble_trace` derives the final state from them, one
bincount per stored tally, and :func:`_check_rejections` is the one check
that a strategy can yield them.  A state stores three per-bin tallies; the
fourth, ``secondary_used``, is derived as ``load - primary_accepted``.
:func:`_decisions` is the one rule for the decisions a record lists.
:func:`trace_from_json` rebuilds and checks a serialized trace, each
record in the one pass that fills the columns.  This
module runs no kernel: :func:`_assembly_peak_bytes` bounds what building a
trace holds, for :func:`trace_from_json`'s guard and for
``engine.trace_peak_bytes``, which adds the kernel that ``engine.run``
runs first.

Bins are 1-based in every public record and serialization, 0-based in the
tally arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, _as_int, _check_budget
from .strategies import StrategySpec, parse_strategy

# The tallies a state stores, then the one it derives from them; each is a
# tally name that engine.level_set_count reads.
_STORED_TALLIES = ("load", "primary_suggested", "primary_accepted")
_TALLY_FIELDS = (*_STORED_TALLIES, "secondary_used")

# Bytes that trace_from_json holds per character of a payload as to_json
# writes it, besides what _assembly_peak_bytes counts: json.loads's objects
# (3.1 to 4.9 bytes per character under tracemalloc, from bin-heavy to
# ball-heavy payloads), the list of replayed loads that it compares with the
# payload's (8 bytes per bin, and a bin takes at least 3 characters), and at
# most two int64 arrays per ball beyond the assembly's four (sec_idx, then
# the pool indices it is checked against; a record takes at least 75
# characters).
_JSON_BYTES_PER_CHAR = 6


def _decisions(reject_count: int, spec: StrategySpec) -> tuple[str, ...]:
    """A ball's decisions: its rejects, then an accept unless the rejects
    used up the spec's retry budget (1 for two-choices) and forced it.
    ``engine.step`` records them, ``records`` and ``to_json`` write them,
    and :func:`trace_from_json` checks them."""
    accept = ("accept",) if reject_count < spec.retry_budget else ()
    return ("reject",) * reject_count + accept


@dataclass(eq=False)
class ProcessState:
    """Mutable tallies of one allocation process.

    ``load`` holds final per-bin loads, ``primary_suggested`` counts every
    primary suggestion (accepted or not), ``primary_accepted`` counts the
    accepted ones, and ``rejections`` counts individual reject decisions.
    A bin's load is its accepted primaries plus the balls it took from the
    pool, so the latter, ``secondary_used``, is derived, not stored.
    """

    n: int
    strategy: StrategySpec
    t: int = 0
    load: np.ndarray = field(default=None)
    primary_suggested: np.ndarray = field(default=None)
    primary_accepted: np.ndarray = field(default=None)
    rejections: int = 0

    def __post_init__(self):
        for name in _STORED_TALLIES:
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.n, dtype=np.int64))

    @property
    def secondary_used(self) -> np.ndarray:
        """Per bin, the balls that landed through the pool: ``load - primary_accepted``."""
        return self.load - self.primary_accepted

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
                for name in _STORED_TALLIES
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
        """The pool index each ball consumes last, -1 where it was never rejected.

        Thinning kinds take one pool draw per reject, so a ball's last one is
        the running reject total minus 1; two-choices draws a candidate for
        every ball, so a ball that takes it consumes its own index.
        """
        counts = self.reject_counts
        if self.strategy.is_thinning:
            last = np.cumsum(counts) - 1
        else:
            last = np.arange(len(counts), dtype=np.int64)
        return np.where(counts > 0, last, -1)

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
        counts = np.unique(self.reject_counts).tolist()
        decisions = {c: _decisions(c, self.strategy) for c in counts}
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
            c: f', "decision": {json.dumps(list(_decisions(c, self.strategy)))}, "final": '
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

    Every record's ``ball``, ``primary`` and ``final`` must be ints (not
    bools) that int64 holds, its ``ball`` its 1-based position, its
    ``decision`` the list ``to_json`` writes for its reject count, its
    ``final`` its ``primary`` unless it was rejected, and its ``sec_idx``
    null or the pool index its reject counts give (see
    :func:`_check_rejections` and :attr:`Trace.pool_indices`); the embedded
    loads are checked against the replayed records.  So a corrupted or
    impossible payload is rejected with ``ConfigurationError`` rather than
    silently trusted.

    A payload whose parse, at ``_JSON_BYTES_PER_CHAR`` bytes per character,
    would exceed ``errors.MEMORY_BUDGET_BYTES`` raises ``ResourceLimitError``
    before it is parsed; one whose parse plus the arrays it builds
    (:func:`_assembly_peak_bytes` of the trace it describes) would, raises
    it before any column is built.  No kernel runs, so none is counted.
    """
    parse_bytes = _JSON_BYTES_PER_CHAR * len(text)
    what = f"a trace payload of {len(text)} characters"
    _check_budget(parse_bytes, what)
    try:
        payload = json.loads(text)
        n = _as_int(payload["n"], "bin count", 1)
        t = _as_int(payload["t"], "trace payload ball count", 0)
        strategy = parse_strategy(payload["strategy"], n=n)
        seed = None if payload["seed"] is None else _as_int(payload["seed"], "trace payload seed")
        raw_records = payload["records"]
        loads = payload["loads"]
        if len(raw_records) != t or len(loads) != n:
            raise ConfigurationError("trace payload lengths disagree with n, t")
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # json's, and ints past its digit limit
        raise ConfigurationError(f"malformed trace payload: {exc}") from None
    _check_budget(parse_bytes + _assembly_peak_bytes(n, t), what)
    primary_bins = np.zeros(t, dtype=np.int64)
    final_bins = np.zeros(t, dtype=np.int64)
    reject_counts = np.zeros(t, dtype=np.int64)
    sec_idx = np.full(t, -1, dtype=np.int64)
    allowed = {}  # each reject count met, and the decision list to_json writes for it
    try:
        for i, row in enumerate(raw_records):
            ball, primary, final = row["ball"], row["primary"], row["final"]
            decision, pool_index = row["decision"], row["sec_idx"]
            count = decision.count("reject")
            if count not in allowed:
                allowed[count] = list(_decisions(count, strategy))
            # Bools are not integers here; a number beyond int64 overflows its column.
            if (not type(ball) is type(primary) is type(final) is int or ball != i + 1
                    or decision != allowed[count]
                    or pool_index is not None and (type(pool_index) is not int or pool_index < 0)):
                raise ValueError(f"no run of {strategy.label} writes {row}")
            primary_bins[i] = primary - 1
            final_bins[i] = final - 1
            reject_counts[i] = count
            if pool_index is not None:
                sec_idx[i] = pool_index
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed trace record {i + 1}: {exc}") from None
    if primary_bins.size and not (
        0 <= primary_bins.min() and primary_bins.max() < n
        and 0 <= final_bins.min() and final_bins.max() < n
    ):
        raise ConfigurationError(f"trace payload bin numbers must lie in 1..{n}")
    trace = _assemble_trace(n, t, strategy, seed, primary_bins, final_bins, reject_counts)
    _check_rejections(trace)
    expected = trace.pool_indices
    wrong = np.flatnonzero(sec_idx != expected)
    if wrong.size:
        i = int(wrong[0])
        raise ConfigurationError(
            f"ball {i + 1} has sec_idx {raw_records[i]['sec_idx']}, but its rejects "
            f"give {None if expected[i] < 0 else int(expected[i])}"
        )
    if trace.final_state.load.tolist() != loads:
        raise ConfigurationError("trace payload loads disagree with its records")
    return trace


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
    """Build the Trace and its final state from columnar ball data, one
    bincount per stored tally.  The accepted primaries are counted from a
    gather of the never-rejected balls, which is freed before the other two
    tallies are counted."""
    accepted = np.bincount(final_bins[reject_counts == 0], minlength=n)
    state = ProcessState(n=n, strategy=spec, t=int(t), rejections=int(reject_counts.sum()),
                         load=np.bincount(final_bins, minlength=n),
                         primary_suggested=np.bincount(primary_bins, minlength=n),
                         primary_accepted=accepted)
    return Trace(n, int(t), spec, seed, primary_bins, final_bins, reject_counts, state)


def _assembly_peak_bytes(n: int, t: int, level: int | None = None) -> int:
    """Upper bound on the memory that building a trace of ``t`` balls in
    ``n`` bins holds once its columns are filled.

    In words: the three int64 columns, beside the larger of two phases of
    :func:`_assemble_trace`.  First the gather of the never-rejected balls,
    beside the mask that picks them (a bool per ball) and then the bincount
    of them.  A rule at thinning ``level`` accepts at most ``level``
    primaries in a bin, so the gather is at most min(t, n·level) words; with
    no level (two-choices, or a payload that :func:`trace_from_json` does
    not trust) it is charged t.  Then the three n-word tallies.  Plus 16 KiB
    of Python objects.  It is the last phase of ``engine.trace_peak_bytes``,
    and, beside its parse, the whole guard of :func:`trace_from_json`.
    """
    gathered = t if level is None else min(t, n * level)
    mask = t // 8 + 1
    return 8 * (3 * t + max(gathered + max(mask, n), 3 * n)) + 16 * 1024


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
