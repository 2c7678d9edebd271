"""The two-thinning allocation process engine.

Each ball draws a uniform primary bin from the primary stream.  A thinning
strategy, seeing only the tallies so far and the suggestion, accepts or
rejects; a rejected ball lands at the next unconsumed draw of the secondary
pool.  With a retry budget k above 1, each fresh pool suggestion is put to
the strategy again, and after k rejections the next pool draw is forced.

Bins are 1-based in every public record and serialization, 0-based in the
tally arrays.

:func:`step` allocates one ball at a time and is the reference oracle.
:func:`run` and :func:`run_with_streams` go through one vectorized kernel,
:func:`_columns`, which draws blocks of balls and yields bit-identical
traces and stream positions.  :func:`run_summary` and
:func:`run_summary_batch` never build the columns: :func:`_summary_groups`
counts the draws (see the end of this docstring), or runs the kernel
``_columns`` runs for the kind and keeps only the loads.  Per kind,
``_columns`` places:

- one-choice and always-reject: the kind decides every ball, and the
  rejected balls take consecutive pool draws;
- threshold, for every retry budget: one chunk of 2**14 balls at a time
  (:mod:`thinlab.threshold`), which yields per chunk only the rejected
  balls' landings, so the kernel holds no t-length array;
- two-choices (outside the thinning class: it sees both candidate bins,
  and consumes one secondary draw per ball): one chunk of 2**14 balls at a
  time, sorting keys of bin above block offset (uint32 while n <= 2**20)
  per block (:func:`_two_choices_kernel`), which yields per chunk a mask of
  the balls that took their secondary.

A :class:`Trace` stores three per-ball columns: primary bins, final bins
and reject counts.  Rejected balls take the secondary pool's draws in ball
order, so the pool index a ball consumes is derived from the reject counts
(:attr:`Trace.pool_indices`), never stored; ``replay``, ``to_json`` and
``records`` all work from the three columns, and :func:`_check_rejections`
is the one check that a strategy can yield them.

One-choice, always-reject and threshold with k = 1 have one counting
kernel (:mod:`thinlab.counting`), which counts the runs of many seeds
together; its regimes are described there.  ``run_summary`` returns the
table it counted into, so its loads are exact but often narrower than
int64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, ResourceLimitError, _as_int
from .counting import _count_groups, _count_peak_bytes, _counts_draws, _seed_streams, _summaries
from .rng import _chunk_buffer_bytes
from .strategies import (
    ALWAYS_REJECT,
    THRESHOLD,
    TWO_CHOICES_GREEDY,
    StrategySpec,
    decide,
    parse_strategy,
    two_choices_decide,
)
from .threshold import _THRESHOLD_CHUNK, _threshold_chunks, _threshold_peak_bytes

_TALLY_FIELDS = ("load", "primary_suggested", "primary_accepted", "secondary_used")

# Most memory one run, trace or campaign may hold at once.
MEMORY_BUDGET_BYTES = 2 * 1024**3

# Balls in one block of the two-choices kernel.  Longer blocks leave more
# balls to its scalar tail, shorter ones pay more numpy calls: run_summary
# at n = t = 10**6 took 1.10x as long with 2**11 (uint32 keys, medians of
# 60 rounds, 2-vCPU Xeon); 2**13 needs int64 keys there.
_TWO_CHOICES_BLOCK = 1 << 12
# Balls in one chunk of the two-choices kernel: at n = t = 10**6 a summary
# peaks at 1.52 MiB, against 3.07 with 2**16 (tracemalloc); 2**12 was
# slower, 2**13 no faster.
_TWO_CHOICES_CHUNK = 4 * _TWO_CHOICES_BLOCK

# Bytes that trace_from_json holds per character of a payload as to_json
# writes it, besides the trace it builds: json.loads's objects (3.1 to 4.9
# bytes per character under tracemalloc, from bin-heavy to ball-heavy
# payloads) and the two lists of loads that it compares (16 bytes per bin,
# and a bin takes at least 3 characters).
_JSON_BYTES_PER_CHAR = 6


def _check_run(n, t, strategy) -> tuple[int, int, StrategySpec]:
    """The bin count, ball count and spec of a run, checked."""
    n = _as_int(n, "bin count", 1)
    return n, _as_int(t, "ball count", 0), parse_strategy(strategy, n=n)


def _check_budget(needed: int, what: str) -> None:
    """Refuse ``what``, which needs about ``needed`` bytes at once, with
    ResourceLimitError if that exceeds ``MEMORY_BUDGET_BYTES`` as it is now."""
    if needed > MEMORY_BUDGET_BYTES:
        raise ResourceLimitError(
            f"{what} needs about {needed} bytes, beyond the budget of {MEMORY_BUDGET_BYTES}"
        )


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

    def _decisions_for(self, reject_count: int) -> tuple[str, ...]:
        """A ball's decisions: its rejects, then an accept unless the
        rejects used up the retry budget (1 for two-choices) and forced it."""
        accept = ("accept",) if reject_count < self.strategy.retry_budget else ()
        return ("reject",) * reject_count + accept

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
    what = f"a trace payload of {len(text)} characters"
    _check_budget(parse_bytes, what)
    try:
        payload = json.loads(text)
        n = payload["n"]
        t = payload["t"]
        strategy = parse_strategy(payload["strategy"], n=n)
        seed = None if payload["seed"] is None else _as_int(payload["seed"], "trace payload seed")
        raw_records = payload["records"]
        loads = payload["loads"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed trace payload: {exc}") from None
    n = _as_int(n, "bin count", 1)
    t = _as_int(t, "trace payload ball count", 0)
    if len(raw_records) != t or len(loads) != n:
        raise ConfigurationError("trace payload lengths disagree with n, t")
    _check_budget(parse_bytes + trace_peak_bytes(n, t, strategy), what)
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
            for p, s, took, _ in _two_choices_kernel(n, t, primary_stream, secondary_stream)
        ]
        primary_bins, final_bins, rejected = (np.concatenate(c) for c in zip(*chunks))
        return primary_bins, final_bins, rejected.astype(np.int64)
    if spec.kind == THRESHOLD:
        chunks = _threshold_chunks(n, t, spec, primary_stream, secondary_stream)
        # map holds no chunk while the kernel places the next one.
        chunks = list(map(_threshold_columns, chunks))
        return tuple(np.concatenate(c) for c in zip(*chunks))
    primary_bins = primary_stream.bounded_block(n, t)
    rejected = np.full(t, spec.kind == ALWAYS_REJECT)
    final_bins = primary_bins.copy()
    final_bins[rejected] = secondary_stream.bounded_block(n, int(rejected.sum()))
    return primary_bins, final_bins, rejected.astype(np.int64)


def _threshold_columns(chunk):
    """Primary bins, final bins and reject counts of one chunk of
    :func:`_threshold_chunks`."""
    p, balls, landed, rejects, _ = chunk
    final = p.copy()
    final[balls] = landed
    reject_counts = np.zeros(p.size, dtype=np.int64)
    reject_counts[balls] = rejects
    return p, final, reject_counts


def _two_choices_kernel(n, t, primary_stream, secondary_stream):
    """Two-choices placement, drawn and placed one chunk at a time.

    A generator: per chunk of ``_TWO_CHOICES_CHUNK`` balls it draws the
    primaries, then the candidates, places the balls and yields ``(p, s,
    took, load)``: their bins, True where a ball took its candidate, and
    the load table so far (n loads, then a sink bin).  It yields one empty
    chunk if t is 0, and drops a chunk before it draws the next.  Each
    stream is read as one block draw of t reads it, so draws and stream
    positions match :func:`step`.  A ball moves only to a strictly lower
    load, so ``took`` is exactly ``final_bins != primary_bins``.

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
        yield p, s, took, load
        del p, s, took


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
    """The one choice of summary kernel by kind: groups of consecutive
    seeds' runs, in order, shaped like those of ``counting._count_groups``.

    The counting kinds take that kernel's groups.  The others take one run
    per group, whose tables are released before the next run draws:
    two-choices keeps its kernel's load table and counts the balls its
    masks mark as moved; retry budgets above 1 count the threshold kernel's
    landing bins into a table of ``np.min_scalar_type(t)`` and add it to
    the kernel's primary counts, capped at ell.  No kernel holds a t-length
    array, nor more than one chunk at a time.
    """
    if _counts_draws(spec):
        yield from _count_groups(n, t, spec, seeds)
        return
    for seed in seeds:
        rejections = 0
        # Each kernel yields at least once, so loads is always bound.
        if spec.kind == TWO_CHOICES_GREEDY:
            for p, s, took, loads in _two_choices_kernel(n, t, *_seed_streams(seed)):
                rejections += int(np.count_nonzero(took))
                del p, s, took
        else:
            landings = np.zeros(n, dtype=np.min_scalar_type(t))
            one = landings.dtype.type(1)  # a Python int would take a slow path
            for p, balls, landed, rejects, loads in _threshold_chunks(
                    n, t, spec, *_seed_streams(seed)):
                np.add.at(landings, landed, one)
                rejections += int(rejects.sum())
                del p, balls, landed, rejects
            # A bin keeps min(count, ell) of its primaries: pool draws never
            # move a primary count.
            np.minimum(loads, min(spec.ell, t), out=loads)
            loads += landings
            del landings
        yield loads[None, :n], [rejections]
        del loads  # released before the next run draws


def summary_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory one :func:`run_summary` call, or one
    :func:`run_summary_batch` over any number of seeds, holds at once.

    Counted from the buffers each phase of a path keeps alive together,
    with the most rejections a run can have and the widest load table it
    can need (for two-choices, w.h.p.; see below); the bound is the largest
    phase, since a phase frees its temporaries before the next begins.  The
    tests check it against ``tracemalloc`` for every kind and path, and for
    batches in both regimes of the counting kernel.
    """
    w = np.min_scalar_type(t).itemsize  # bytes per bin of a table that holds t
    if _counts_draws(spec):
        return _count_peak_bytes(n, t, spec)
    if spec.is_thinning:
        return _threshold_peak_bytes(n, t, spec) + n * w  # and the landings
    # Two-choices holds the n + 1-bin load table, keys and offsets (3 per
    # block ball, uint32 while n <= 2**20), 16 KiB of Python objects and
    # one chunk of c balls, either drawn (its bins and their draw buffers)
    # or placed (its bins and took mask, a block's temporaries, at most 14
    # words per block ball with the waiting balls' Python lists, and while
    # the table widens the uint8 table beside the wide one).  A seeded
    # run's max load exceeds t/n by about log2 log n, with a doubly
    # exponential tail, so the table is counted wide where t >= 128n.
    c = min(t, _TWO_CHOICES_CHUNK)
    wide = t >= 128 * n
    key = np.dtype(_key_type(n)).itemsize
    tables = (n + 1) * (w if wide else 1) + 3 * key * _TWO_CHOICES_BLOCK
    placed = 17 * c + 112 * min(c, _TWO_CHOICES_BLOCK) + (n + 1) * wide
    return 16 * 1024 + tables + max(16 * c + _chunk_buffer_bytes(n, c), placed)


def trace_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory one :func:`run` call holds at once.

    Counted like :func:`summary_peak_bytes`, in words, as the largest phase
    of ``_columns`` and then of ``_assemble_trace``, with the most
    rejections a run can have, plus 16 KiB of Python objects.  The tests
    check it against ``tracemalloc`` for every kind.
    """
    mask = t // 8 + 1  # a bool per ball
    if spec.kind == TWO_CHOICES_GREEDY:
        # The kernel's buffers beside the chunks kept so far (primary bins,
        # final bins and took mask, and at most 1 KiB of array headers and a
        # tuple per chunk) and the last chunk's candidates; then, beside
        # those chunks, their concatenation and the int64 reject counts.
        kept = 2 * t + mask + 128 * -(-t // _TWO_CHOICES_CHUNK)
        c = min(t, _TWO_CHOICES_CHUNK)
        columns = max(kept + c + summary_peak_bytes(n, t, spec) // 8, 2 * kept + t)
    elif spec.kind == THRESHOLD:
        # The kernel beside the chunks before its own (three columns, and at
        # most 1 KiB of headers and a tuple each), then their concatenation.
        kept = 3 * t + 128 * -(-t // _THRESHOLD_CHUNK)
        kernel = -(-_threshold_peak_bytes(n, t, spec) // 8)
        columns = max(kept - 3 * min(t, _THRESHOLD_CHUNK) + kernel, 2 * kept)
    else:
        # The primary bins, the rejected mask, the final bins and the pool
        # block (at most t draws, with its draw buffers); at the end, the
        # int64 reject counts in place of the block.
        columns = 3 * t + mask + -(-_chunk_buffer_bytes(n, t) // 8)
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
