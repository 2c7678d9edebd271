"""Bin-by-bin capped-placement counts, used only by tests as a reference.

``oracle._capped_placements`` counts by a power recurrence over balls; this
adds one bin at a time instead, O(n·t·cap) big-integer products per cap,
and shares no step with it.  The one-choice pmf here differences the
counts over caps, as the package's pmf does.
"""

import math
from fractions import Fraction

from thinlab.oracle import Pmf


def binned_capped_placements(n: int, t: int, cap: int) -> int:
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


def binned_one_choice_maxload(n: int, t: int) -> Pmf:
    """Exact one-choice max-load pmf from the bin-by-bin counts."""
    total = n**t
    support, probs, below = [], [], 0
    for cap in range(t + 1):
        within = binned_capped_placements(n, t, cap)
        if within > below:
            support.append(cap)
            probs.append(Fraction(within - below, total))
        below = within
    return Pmf(tuple(support), tuple(probs))
