"""Brute-force exact max-load law, used only by tests as a reference.

Every point of the joint draw space, n^t primary draws times n^(t·k)
pool draws, is stepped through ``engine.step`` from fixed streams, so the
law is a count over the whole product divided by its size.  Unconsumed
pool draws vary freely and cancel out; the product is still enumerated in
full, so no conditioning can be silently introduced.  The package's
``oracle.exact_maxload_distribution`` walks distinct bin states instead
and is checked against this on instances small enough to enumerate.
"""

import itertools
from fractions import Fraction

from thinlab.engine import _check_run, max_load, new_process, step
from thinlab.oracle import Pmf
from thinlab.rng import FixedStream


def enumerated_maxload_distribution(n, t, strategy) -> Pmf:
    """Exact max-load pmf by stepping the engine on every joint assignment."""
    n, t, spec = _check_run(n, t, strategy)
    pool = t * spec.retry_budget
    size = n ** (t + pool)
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
