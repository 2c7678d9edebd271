"""Exact small-instance ground truth for the allocation process.

Two independent exact computations live here: a forward pass over the
bin states that ``engine.step``, the reference oracle, reaches (any
strategy, small instances), and a power recurrence for the one-choice
max-load law (larger instances).  :func:`poissonization_check` compares
exact laws with the Poisson routines of :mod:`thinlab.poisson`, the only
floating-point code of the oracles.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .engine import _check_run, new_process, step
from .errors import ConfigurationError, StateSpaceLimitError, _as_int, _shown
# poisson_tail and poisson_excess_mean are imported to re-export them.
from .poisson import _poisson_empties_ge, _poisson_max_ge, poisson_excess_mean, poisson_tail
from .rng import FixedStream

# Bin steps of a state pass.  A step restores and sorts n bins, and its fixed
# cost (the FixedStreams, step and its record, the prefix) is that of
# _STEP_BINS more.  Past n = 1023 a bin costs more, as the sort's comparisons
# grow with log n, so _step_units charges a step n + _STEP_BINS bin steps
# times bit_length(n) / 10 where that is above 1.  A bin step then took
# 0.39-0.64 us at every n from 3 to 2.3 * 10^6 (CPython 3.11, 2 vCPUs), where
# n + 16 a step took 0.93-1.10 us at n = 10^6, and a pass stops within about
# 3.5 s.  It admits (16, 16, threshold:1), 4.99 * 10^6 bin steps, and the
# widest pass, (2318166, 1), which took 2.3-2.4 s and 296 MB, within
# MEMORY_BUDGET_BYTES; (5 * 10^6, 1) is refused.
STEP_LIMIT = 51 * 10**5
_STEP_BINS = 16
# Term-bits of an exact one-choice side: its big-integer terms, plus t for
# reducing a count over n^t, times the t * bit_length(n) bits that bound them.
# Seconds per 10^9 (CPython 3.11, 2 vCPUs), at the limit unless marked *:
# pmf (60, 60)* 0.79, (2, 338) 0.63, (10, 259) 0.36, (200, 217) 0.32; max_ge_a
# (400, 400, a = 40)* 0.17, (3, 2210, 736) 0.50, (10, 1754, 584) 0.35-0.40,
# (10^4, 11952, 3) 0.08; empties_ge_k (2, 54769, 0) under 0.01, (200, 19056, 0)
# 3.1, (300, 11722, 1) 3.3, (1000, 1000, 1)* 2.6-3.8: a request stops within 25 s.
TERM_BIT_LIMIT = 6 * 10**9

STATISTICS = ("max_ge_a", "empties_ge_k")


@dataclass(frozen=True)
class Pmf:
    """A probability mass function over integer outcomes.

    Probabilities are exact Fractions when produced by the oracle routines;
    float entries are accepted for empirical distributions and must sum to
    1 within 1e-12.
    """

    support: tuple[int, ...]
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise ConfigurationError("pmf support and probabilities differ in length")
        if list(self.support) != sorted(set(self.support)):
            raise ConfigurationError("pmf support must be sorted and distinct")
        if any(p < 0 for p in self.probs):
            raise ConfigurationError("pmf probabilities must be non-negative")
        total = sum(self.probs)
        if isinstance(total, Fraction):
            if total != 1:
                raise ConfigurationError(f"pmf probabilities sum to {total}, not 1")
        elif abs(total - 1.0) > 1e-12:
            raise ConfigurationError(f"pmf probabilities sum to {total!r}, not 1")

    def prob_of(self, value: int):
        """P(X = value); zero off the support."""
        try:
            return self.probs[self.support.index(value)]
        except ValueError:
            return Fraction(0)

    def tail(self, level: int):
        """P(X >= level)."""
        return sum(
            (p for v, p in zip(self.support, self.probs) if v >= level),
            start=Fraction(0),
        )

    def mean(self):
        return sum(v * p for v, p in zip(self.support, self.probs))

    def as_floats(self) -> dict[int, float]:
        return {v: float(p) for v, p in zip(self.support, self.probs)}


def pmf_from_counts(counts: dict[int, int]) -> Pmf:
    """Empirical pmf with exact rational weights count/total."""
    if not counts:
        raise ConfigurationError("cannot build a pmf from no observations")
    total = sum(counts.values())
    support = tuple(sorted(counts))
    probs = tuple(Fraction(counts[v], total) for v in support)
    return Pmf(support, probs)


def tv_distance(first: Pmf, second: Pmf) -> float:
    """Total-variation distance: half the L1 gap over the joint support."""
    values = sorted(set(first.support) | set(second.support))
    gap = sum(abs(first.prob_of(v) - second.prob_of(v)) for v in values)
    return float(gap / 2)


def _step_units(n: int) -> int:
    """Bin steps charged for one step of a state pass over n bins."""
    return (n + _STEP_BINS) * max(10, n.bit_length()) // 10


def exact_maxload_distribution(n: int, t: int, strategy) -> Pmf:
    """Exact max-load pmf by a forward pass over the bin states :func:`step`
    reaches.  A state is the sorted tuple of per-bin pairs (primary
    suggestions capped at the thinning level, load), counted by the draw
    sequences that reach it.  Each ball steps each state, restored into the
    pass's one process, per prefix of draws: a primary, then each pool draw
    read beyond those fixed, up to the retry budget k.  A draw is a bin drawn
    before or one bin for its class of equal pairs among the rest, which are
    exchangeable; a prefix weighs count * n^(1+k) times class size/n a draw,
    so unread pool draws cancel out: the law of the shared pool.  A step is
    charged :func:`_step_units` bin steps; refused if one step per ball would
    pass ``STEP_LIMIT``, else at the step past it.
    """
    n, t, spec = _check_run(n, t, strategy)
    k, cap, unit = spec.retry_budget, spec.level(t) or 0, _step_units(n)
    if t * unit > STEP_LIMIT:
        raise StateSpaceLimitError(
            f"{t} balls in {_shown(n)} bins need over {STEP_LIMIT} bin steps"
        )
    state, states, steps = new_process(n, spec), Counter({((0, 0),) * n: 1}), 0
    for ball in range(t):
        successors = Counter()
        for key, count in states.items():
            pending = [((), count * n ** (k + 1))]  # draws fixed so far, and their weight
            while pending:
                (drawn, weight), first = pending.pop(), {}  # first: the bin that stands for a class
                sizes = Counter(drawn + (b if b in drawn else first.setdefault(pair, b),)
                                for b, pair in enumerate(key))  # candidates, by class size
                steps += unit * len(sizes)
                if steps > STEP_LIMIT:
                    raise StateSpaceLimitError(f"ball {ball + 1} passes {STEP_LIMIT} bin steps")
                for fixed, size in sizes.items():
                    state.primary_suggested[:], state.load[:] = zip(*key)
                    pool = FixedStream(fixed[1:] + (0,) * (k + 1 - len(fixed)))
                    step(state, FixedStream(fixed[:1]), pool)
                    if pool.draws >= len(fixed):  # it read a pool draw not yet fixed
                        pending.append((fixed, weight * size // n))
                        continue
                    capped = [min(suggested, cap) for suggested in state.primary_suggested.tolist()]
                    successor = tuple(sorted(zip(capped, state.load.tolist())))
                    successors[successor] += weight * size // n
        states = successors
    counts = Counter()
    for key, count in states.items():
        counts[max(load for _, load in key)] += count
    return pmf_from_counts(counts)


def _capped_placements(n: int, t: int, cap: int) -> int:
    """Labeled placements of t balls into n bins with every bin <= cap.

    The count C_t is t! [x^t] (sum_{j <= cap} x^j / j!)^n, so J.C.P.
    Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) gives C_0 = 1 and
    m C_m = sum_{k=1}^{min(m, cap)} ((n + 1) k - m) C(m, k) C_{m-k}: about
    t * cap terms whatever n is, over the last cap counts.
    """
    recent = deque([1], maxlen=cap)  # C_{m-1}, C_{m-2}, ..., C_{m-cap}
    count = 1
    for m in range(1, t + 1):
        count, binom = 0, 1
        for k, earlier in enumerate(recent, 1):
            binom = binom * (m - k + 1) // k
            count += ((n + 1) * k - m) * binom * earlier
        count //= m  # exact
        recent.appendleft(count)
    return count


def _placement_terms(t: int, low: int, high: int) -> int:
    """Terms of :func:`_capped_placements` at caps low..high-1 <= t: cap t - C(cap, 2) each."""
    return t * (math.comb(high, 2) - math.comb(low, 2)) - (math.comb(high, 3) - math.comb(low, 3))


def _check_work(n: int, t: int, terms: int) -> None:
    """Refuse an exact one-choice side of more than ``TERM_BIT_LIMIT`` term-bits."""
    work = (terms + t) * t * n.bit_length()
    if work > TERM_BIT_LIMIT:
        raise StateSpaceLimitError(
            f"{t} balls in {_shown(n)} bins need {_shown(work)} term-bits, over {TERM_BIT_LIMIT}")


def exact_one_choice_maxload(n: int, t: int) -> Pmf:
    """Exact max-load pmf under pure uniform allocation, by the power recurrence.

    P(max <= a) counts placements where every bin holds at most a balls;
    the pmf follows by differencing consecutive caps.  Independent of the
    state pass, and feasible far beyond its scale.
    """
    n, t = _as_int(n, "bin count", 1), _as_int(t, "ball count", 0)
    lowest = -(-t // n)  # smallest possible max load
    _check_work(n, t, _placement_terms(t, lowest, t))
    # within[i]: placements with every bin below lowest + i, strictly increasing in i
    within = [0] + [_capped_placements(n, t, cap) for cap in range(lowest, t)] + [n**t]
    return pmf_from_counts({lowest + i: within[i + 1] - within[i] for i in range(t + 1 - lowest)})


def _surjections(t: int, m: int) -> int:
    """Labeled placements of t balls onto m bins leaving none empty."""
    return sum((-1) ** i * math.comb(m, i) * (m - i) ** t for i in range(m + 1))


def _multinomial_max_ge(n: int, t: int, a: int) -> Fraction:
    """Exact P(max load >= a) with t uniform balls in n bins."""
    if a <= 0:
        return Fraction(1)
    if a > t:
        return Fraction(0)
    _check_work(n, t, _placement_terms(t, a - 1, a))
    return 1 - Fraction(_capped_placements(n, t, a - 1), n**t)


def _multinomial_empties_ge(n: int, t: int, k: int) -> Fraction:
    """Exact P(at least k >= 0 bins stay empty) with t uniform balls in n bins."""
    # t balls fill at most t bins, so terms with n - j > t are zero.
    low = max(k, n - t)
    _check_work(n, t, math.comb(max(n - low + 2, 0), 2))  # n - j + 1 powers at each j
    favorable = sum(
        math.comb(n, j) * _surjections(t, n - j) for j in range(low, n + 1)
    )
    return Fraction(favorable, n**t)


class PoissonizationCheck(NamedTuple):
    """Both sides of the factor-2 comparison and the verdict."""

    lhs: float
    rhs: float
    holds: bool


def poissonization_check(n: int, t: int, statistic: str, level: int) -> PoissonizationCheck:
    """Compare a monotone statistic's exact probability to its Poisson bound.

    lhs is the exact fixed-ball-count probability; rhs is twice the same
    event's probability under n independent Poisson(t/n) loads; holds
    means lhs <= rhs + 1e-12.  Statistics menu: "max_ge_a" (increasing),
    "empties_ge_k" (decreasing).
    """
    if statistic not in STATISTICS:
        known = ", ".join(STATISTICS)
        raise ConfigurationError(
            f"unknown statistic {statistic!r}; expected one of: {known}"
        )
    n, t = _as_int(n, "bin count", 1), _as_int(t, "ball count", 1)
    level = _as_int(level, "the level", 0)
    lam = t / n
    if lam < 1e-300:  # so that n, 1 / lam and the odds of an empty bin stay floats
        raise ConfigurationError(f"the Poisson rate t/n = {lam!r} is below 1e-300")
    if statistic == "max_ge_a":
        lhs = float(_multinomial_max_ge(n, t, level))
        rhs = 2.0 * _poisson_max_ge(n, lam, level)
    else:
        lhs = float(_multinomial_empties_ge(n, t, level))
        rhs = 2.0 * _poisson_empties_ge(n, lam, level)
    return PoissonizationCheck(lhs, rhs, lhs <= rhs + 1e-12)
