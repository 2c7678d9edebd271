"""Poisson tails and the Poisson sides of the poissonization check.

The floating-point side of the oracles: :func:`thinlab.oracle.poissonization_check`
compares these with exact laws.  Each sum walks its terms outward from the
one nearest the mode by the term ratio, so its work grows with the spread
of the law, not with its mean.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError, _as_int


def _stirlerr(j: int) -> float:
    """log(j!) - log(sqrt(2 pi j) (j/e)^j), by Stirling's series for j >= 15."""
    jj = j * j
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / jj) / jj) / jj) / jj) / j


def _bd0(x: int, mu: float) -> float:
    """x log(x / mu) + mu - x without cancellation: near mu by its series in
    v = (x - mu) / (x + mu) (C. Loader, "Fast and accurate computation of
    binomial probabilities", 2000)."""
    if abs(x - mu) >= 0.1 * (x + mu):
        return x * math.log(x / mu) + mu - x
    v = (x - mu) / (x + mu)
    total, power, j = (x - mu) * v, 2 * x * v, 1
    while True:
        power *= v * v
        j += 2
        if total + power / j == total:
            return total
        total += power / j


def _poisson_term(lam: float, j: int) -> float:
    """P(Poisson(lam) = j) to a few ulps: as a product below 15, else in
    Loader's saddle-point form, exp(-stirlerr(j) - bd0(j, lam)) / sqrt(2 pi j)."""
    if j < 15:
        return math.prod((lam / i for i in range(1, j + 1)), start=math.exp(-lam))
    return math.exp(-_stirlerr(j) - _bd0(j, lam)) / math.sqrt(2 * math.pi * j)


def _poisson_terms(lam: float, j: int, down: bool):
    """Poisson(lam) terms from j away from the mode, by the term ratio,
    until one falls below 1e-22 of the first."""
    first = term = _poisson_term(lam, j)
    while term > 1e-22 * first:
        yield term
        if down:  # p(j - 1) = p(j) j / lam, which is 0 below j = 0
            term, j = term * (j / lam), j - 1
        else:
            j += 1
            term *= lam / j


def poisson_tail(lam: float, a: int) -> float:
    """P(Poisson(lam) > a), absolute error below 1e-14.

    Below the mode it is 1 minus the lower CDF; from the mode up, the upper
    tail summed directly, so a small tail keeps its relative accuracy.  Each
    sum starts at its term nearest the mode and walks outward, until the
    terms fall below 1e-22 of the first: O(sqrt(lam)) terms, in constant
    memory.
    """
    if not 0 < lam < math.inf:
        raise ConfigurationError(f"the Poisson rate must be positive and finite, got {lam!r}")
    a = _as_int(a, "the tail level", 0)
    if a < int(lam):
        return 1.0 - math.fsum(_poisson_terms(lam, a, down=True))
    return math.fsum(_poisson_terms(lam, a + 1, down=False))


def poisson_excess_mean(lam: float, level: int) -> float:
    """E[(Poisson(lam) - level)+], from tail probabilities.

    Uses the identity E[(Y - m)+] = lam * P(Y >= m) - m * P(Y >= m + 1),
    so the result inherits the tail routine's accuracy.
    """
    level = _as_int(level, "the level", 0)
    if level == 0:
        return float(lam)
    return lam * poisson_tail(lam, level - 1) - level * poisson_tail(lam, level)


def _poisson_max_ge(n: int, lam: float, a: int) -> float:
    """P(max of n iid Poisson(lam) >= a)."""
    if a <= 0:
        return 1.0
    tail = poisson_tail(lam, a - 1)
    if tail >= 1.0:  # a level far below lam: log1p(-1.0) is out of its domain
        return 1.0
    # 1 - (1 - tail)^n without rounding 1 - tail to 1 for a tiny tail.
    return -math.expm1(n * math.log1p(-tail))


def _poisson_empties_ge(n: int, lam: float, k: int) -> float:
    """P(at least k >= 0 of n iid Poisson(lam) bins are empty)."""
    # Binomial(n, e^-lam) weights relative to the mode, by the term ratio,
    # over their sum: no comb(n, j) to overflow a float, and no cancellation.
    # Each walk from the mode stops at the first weight to underflow to 0.0,
    # past which all are 0.0: about 40 sd out, and sqrt(n p (1 - p)) <= sqrt(t).
    p_empty = math.exp(-lam)
    odds = p_empty / -math.expm1(-lam)
    mode = min(n, int((n + 1) * p_empty))
    weights = {mode: 1.0}
    for j in range(mode, n):
        weights[j + 1] = weights[j] * (n - j) / (j + 1) * odds
        if weights[j + 1] == 0.0:
            break
    for j in range(mode, 0, -1):
        weights[j - 1] = weights[j] * j / ((n - j + 1) * odds)
        if weights[j - 1] == 0.0:
            break
    return math.fsum(w for j, w in weights.items() if j >= k) / math.fsum(weights.values())
