"""Exact small-instance ground truth for the allocation process.

Three independent exact computations live here: exhaustive enumeration of
the joint draw space (any strategy, tiny instances), a dynamic program for
the one-choice max-load law (larger instances), and Poisson tail sums.
Enumeration steps each point through ``engine.step``, the reference
oracle, and builds no trace.  Enumeration and the DP use exact rational
arithmetic throughout; floating point appears only in the Poisson
routines.

The Poissonization comparison check evaluates both sides of the factor-2
domination numerically: the fixed-ball-count probability of a monotone
event against twice its probability under independent Poisson loads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .engine import _check_run, max_load, new_process, step
from .errors import ConfigurationError, StateSpaceLimitError, _as_int
from .rng import FixedStream

ENUMERATION_LIMIT = 10**8
DP_CELL_LIMIT = 10**6

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
    gap = sum(abs(Fraction(first.prob_of(v)) - Fraction(second.prob_of(v))) for v in values)
    return float(gap / 2)


def exact_maxload_distribution(n: int, t: int, strategy) -> Pmf:
    """Exact max-load pmf by stepping the engine on every joint assignment.

    Each assignment is run through the reference :func:`step`, one ball at
    a time, from fixed primary and secondary streams.  A run consumes at
    most ``retry_budget`` secondary draws per ball (one per rejection, or
    one per ball for two-choices).  Every (primary draws, secondary draws)
    tuple is equally likely, so the pmf is an integer count over the full
    product space divided by its size.  Unconsumed secondary draws vary
    freely and cancel out; the product space is still enumerated in full,
    trading time for the certainty that no conditioning is silently
    introduced.
    """
    n, t, spec = _check_run(n, t, strategy)
    pool = t * spec.retry_budget
    size = n ** (t + pool)
    if size > ENUMERATION_LIMIT:
        raise StateSpaceLimitError(
            f"joint outcome space has n^{t + pool} = {size} assignments, "
            f"beyond the enumeration limit of {ENUMERATION_LIMIT}"
        )
    counts: dict[int, int] = {}
    for primary in itertools.product(range(n), repeat=t):
        for secondary in itertools.product(range(n), repeat=pool):
            state = new_process(n, spec)
            primary_stream, secondary_stream = FixedStream(primary), FixedStream(secondary)
            for _ in range(t):
                step(state, primary_stream, secondary_stream)
            value = max_load(state)
            counts[value] = counts.get(value, 0) + 1
    support = tuple(sorted(counts))
    probs = tuple(Fraction(counts[v], size) for v in support)
    return Pmf(support, probs)


def _capped_placements(n: int, t: int, cap: int) -> int:
    """Labeled placements of t balls into n bins with every bin <= cap."""
    ways = [1] + [0] * t  # ways[m]: m balls into bins processed so far
    for _ in range(n):
        new_ways = [0] * (t + 1)
        for placed in range(t + 1):
            if ways[placed] == 0:
                continue
            limit = min(cap, t - placed)
            for extra in range(limit + 1):
                new_ways[placed + extra] += ways[placed] * math.comb(
                    t - placed, extra
                )
        ways = new_ways
    return ways[t]


def exact_one_choice_maxload(n: int, t: int) -> Pmf:
    """Exact max-load pmf under pure uniform allocation, via capped DP.

    P(max <= a) counts placements where every bin holds at most a balls;
    the pmf follows by differencing consecutive caps.  Independent of the
    enumeration routine, and feasible far beyond enumeration scale.
    """
    n, t = _as_int(n, "bin count", 1), _as_int(t, "ball count", 0)
    if n * t > DP_CELL_LIMIT:
        raise StateSpaceLimitError(
            f"one-choice DP needs n*t = {n * t} cells per level, "
            f"beyond the limit of {DP_CELL_LIMIT}"
        )
    if t == 0:
        return Pmf((0,), (Fraction(1),))
    total = n**t
    lowest = -(-t // n)  # smallest possible max load
    cdf_prev = 0
    support = []
    probs = []
    for cap in range(lowest, t + 1):
        cdf = _capped_placements(n, t, cap) if cap < t else total
        if cdf > cdf_prev:
            support.append(cap)
            probs.append(Fraction(cdf - cdf_prev, total))
        cdf_prev = cdf
    return Pmf(tuple(support), tuple(probs))


def poisson_tail(lam: float, a: int) -> float:
    """P(Poisson(lam) > a), absolute error below 1e-14.

    The lower CDF is summed term by term with exact compensation; when the
    CDF is close to 1 the complement would cancel badly, so the upper tail
    is then summed directly from its leading term.
    """
    if not lam > 0:
        raise ConfigurationError(f"the Poisson rate must be positive, got {lam!r}")
    a = _as_int(a, "the tail level", 0)
    log_lam = math.log(lam)
    terms = []
    log_term = -lam
    for j in range(a + 1):
        if j > 0:
            log_term += log_lam - math.log(j)
        terms.append(math.exp(log_term))
    cdf = math.fsum(terms)
    if cdf <= 0.99:
        return 1.0 - cdf
    # Direct tail: start at j = a + 1 and walk the term recurrence.
    j = a + 1
    log_term = j * log_lam - lam - math.lgamma(j + 1)
    term = math.exp(log_term)
    tail_terms = []
    while term > 0.0:
        tail_terms.append(term)
        if term < 1e-22 * (tail_terms[0] + 1e-300) and j > lam:
            break
        j += 1
        term *= lam / j
    return math.fsum(tail_terms)


def poisson_excess_mean(lam: float, level: int) -> float:
    """E[(Poisson(lam) - level)+], from tail probabilities.

    Uses the identity E[(Y - m)+] = lam * P(Y >= m) - m * P(Y >= m + 1),
    so the result inherits the tail routine's accuracy.
    """
    level = _as_int(level, "the level", 0)
    if level == 0:
        return float(lam)
    return lam * poisson_tail(lam, level - 1) - level * poisson_tail(lam, level)


def _surjections(t: int, m: int) -> int:
    """Labeled placements of t balls onto m bins leaving none empty."""
    return sum(
        (-1) ** i * math.comb(m, i) * (m - i) ** t for i in range(m + 1)
    )


def _multinomial_max_ge(n: int, t: int, a: int) -> Fraction:
    """Exact P(max load >= a) with t uniform balls in n bins."""
    if a <= 0:
        return Fraction(1)
    if a > t:
        return Fraction(0)
    return 1 - Fraction(_capped_placements(n, t, a - 1), n**t)


def _multinomial_empties_ge(n: int, t: int, k: int) -> Fraction:
    """Exact P(at least k bins stay empty) with t uniform balls in n bins."""
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    total = n**t
    favorable = sum(
        math.comb(n, j) * _surjections(t, n - j) for j in range(k, n + 1)
    )
    return Fraction(favorable, total)


def _poisson_max_ge(n: int, lam: float, a: int) -> float:
    """P(max of n iid Poisson(lam) >= a)."""
    if a <= 0:
        return 1.0
    per_bin_below = 1.0 - poisson_tail(lam, a - 1)  # P(Y <= a - 1)
    return 1.0 - per_bin_below**n


def _poisson_empties_ge(n: int, lam: float, k: int) -> float:
    """P(at least k of n iid Poisson(lam) bins are empty)."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    p_empty = math.exp(-lam)
    terms = [
        math.comb(n, j) * p_empty**j * (1.0 - p_empty) ** (n - j)
        for j in range(k, n + 1)
    ]
    return min(1.0, math.fsum(terms))


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
    if n * t > DP_CELL_LIMIT:
        raise StateSpaceLimitError(
            f"exact side needs n*t = {n * t} DP cells, beyond {DP_CELL_LIMIT}"
        )
    lam = t / n
    if statistic == "max_ge_a":
        lhs = float(_multinomial_max_ge(n, t, level))
        rhs = 2.0 * _poisson_max_ge(n, lam, level)
    else:
        lhs = float(_multinomial_empties_ge(n, t, level))
        rhs = 2.0 * _poisson_empties_ge(n, lam, level)
    return PoissonizationCheck(lhs, rhs, lhs <= rhs + 1e-12)
