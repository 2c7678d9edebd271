"""Closed-form evaluators for the tail bounds and target quantities.

Every evaluator is a pure function of its numeric inputs.  All logarithms
are natural: the asymptotic statements being evaluated are base-invariant
up to constants absorbed in their error terms, and fixing ln makes every
numeric output reproducible.

Probability bounds are returned raw (they may exceed 1, which is useful
for seeing where a bound is vacuous) and reported clamped to [0, 1] in
:class:`BoundReport`.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DomainError, _as_fraction, _as_int

_EXACT_FACTORIAL_MAX = 20


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


def _log_log_ratio(n: int) -> float:
    """2 ln n / ln ln n, the quantity under the square root."""
    log_n = math.log(_as_int(n, "bin count", 3, DomainError))
    return 2.0 * log_n / math.log(log_n)


def threshold_L(n: int) -> int:
    """Ceiling form of the balanced-allocation threshold level.

    L(n) = ceil(sqrt(2 ln n / ln ln n)); requires n >= 3 so that ln ln n
    is positive.
    """
    return math.ceil(math.sqrt(_log_log_ratio(n)))


def lower_ell(n: int) -> int:
    """Floor companion of :func:`threshold_L`: floor(sqrt(2 ln n / ln ln n))."""
    return math.floor(math.sqrt(_log_log_ratio(n)))


def target_maxload(n: int) -> float:
    """The leading-order max-load target sqrt(8 ln n / ln ln n).

    Equals 2 * sqrt(2 ln n / ln ln n) exactly.
    """
    return math.sqrt(4.0 * _log_log_ratio(n))


def lemma22_bound(theta: float, a: int, s_size: float) -> float:
    """Tail bound 2 exp(-theta^a |S| / (e a!)).

    Bounds the probability that, after theta*n uniform one-choice balls,
    no bin of a fixed subset of size ``s_size`` reaches level ``a``.
    Factorials are exact up to 20! and use log-gamma beyond that for
    numerical stability.
    """
    _require(0.0 <= theta <= 1.0, f"load fraction must lie in [0, 1], got {theta}")
    a = _as_int(a, "level", 1, DomainError)
    _require(s_size >= 0, f"subset size must be non-negative, got {s_size}")
    if theta == 0.0 or s_size == 0:
        return 2.0
    if a <= _EXACT_FACTORIAL_MAX:
        magnitude = (theta**a) * s_size / (math.e * math.factorial(a))
    else:
        log_mag = a * math.log(theta) + math.log(s_size) - 1.0 - math.lgamma(a + 1)
        magnitude = math.exp(log_mag)
    return 2.0 * math.exp(-magnitude)


def lemma23_bound(theta: float, s_size: float) -> float:
    """Tail bound 2 exp(-theta^2 |S| / (2 e^2)).

    Bounds the probability that fewer than theta |S| / (2e) bins of a fixed
    subset of size ``s_size`` are occupied after theta*n one-choice balls.
    """
    _require(0.0 <= theta <= 1.0, f"load fraction must lie in [0, 1], got {theta}")
    _require(s_size >= 0, f"subset size must be non-negative, got {s_size}")
    return 2.0 * math.exp(-(theta**2) * s_size / (2.0 * math.e**2))


class Prop41Result(NamedTuple):
    """Upper-bound value plus the polynomial exponent, for diagnostics."""

    value: float
    exponent: float


def prop41_bound(n: int, eta: float) -> Prop41Result:
    """Upper bound 2 n^(-eta/4 + 2 lnlnln n / lnln n) + 2 exp(-sqrt(n)).

    Bounds the probability that the threshold-strategy max load exceeds
    (2 + eta) L(n).  Requires n >= 16 so the triple logarithm is positive.
    """
    n = _as_int(n, "bin count", 16, DomainError)
    _require(eta > 0, f"eta must be positive, got {eta}")
    log_n = math.log(n)
    loglog_n = math.log(log_n)
    exponent = -eta / 4.0 + 2.0 * math.log(loglog_n) / loglog_n
    value = 2.0 * math.exp(exponent * log_n) + 2.0 * math.exp(-math.sqrt(n))
    return Prop41Result(value, exponent)


def prop51_bound(n: int, epsilon: float) -> float:
    """Lower-bound failure probability exp(-n^(epsilon/5)).

    Bounds the probability that ANY thinning strategy keeps the max load
    below (2 - epsilon) * lower_ell(n).
    """
    n = _as_int(n, "bin count", 1, DomainError)
    _require(epsilon > 0, f"epsilon must be positive, got {epsilon}")
    return math.exp(-(n ** (epsilon / 5.0)))


class StageParams(NamedTuple):
    """Stage-decomposition parameters (ell, s, w, zeta)."""

    ell: int
    s: int
    w: int
    zeta: float


def _exact(value, what: str, valid: Callable, condition: str) -> Fraction:
    """``value`` by the exact-rational rule, or DomainError if not ``valid``.
    A real is checked first, so a NaN or an infinity is refused as outside."""
    message = f"{what} {condition}, got {value}"
    _require(not isinstance(value, numbers.Real) or valid(value), message)
    exact = _as_fraction(value, what, DomainError)
    _require(valid(exact), message)
    return exact


def stage_params(n: int, rho, epsilon) -> StageParams:
    """Stage decomposition: s stages of w balls each, event rate zeta.

    ell = lower_ell(n), s = ceil((2 - epsilon) ell), w = ceil(rho n / (2 ell)),
    zeta = rho / (8 e ell).  rho and epsilon follow the exact-rational rule
    of ``parse_rho`` and the CLI (0.1 is 1/10, "1/2" is one half), and the
    ceilings are exact, so float rounding can never shift a boundary case.
    A rho whose zeta would pass the float range raises DomainError.
    """
    n = _as_int(n, "bin count", 3, DomainError)
    rho = _exact(rho, "load ratio", lambda x: x > 0, "must be positive")
    epsilon = _exact(epsilon, "epsilon", lambda x: 0 < x < 2, "must lie in (0, 2)")
    ell = lower_ell(n)
    s = math.ceil((2 - epsilon) * ell)
    w = math.ceil(rho * n / (2 * ell))
    try:
        zeta = float(rho) / (8.0 * math.e * ell)
    except OverflowError:
        raise DomainError(
            f"load ratio must be at most {sys.float_info.max!r}, the largest float"
        ) from None
    return StageParams(ell, s, w, zeta)


def rejection_budget(n: int) -> float:
    """The rejection-count scale 2 n / L(n)!.

    Observed rejection totals are compared against this as a diagnostic
    ratio; under the default threshold strategy the ratio stays well
    below 1 at practical scales.
    """
    n = _as_int(n, "bin count", 3, DomainError)
    return 2.0 * n / math.factorial(threshold_L(n))


def clamp(value: float) -> float:
    """Clamp a raw probability bound into [0, 1]."""
    return min(value, 1.0)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: raw value, clamped value, and diagnostics.

    ``clamped`` is None for quantities that are not probabilities
    (threshold_L, lower_ell, target_load, stage_params, rejection_budget).
    ``details`` carries evaluator-specific extras: the polynomial exponent
    for prop41, and the full (ell, s, w, zeta) tuple for stage_params,
    whose headline ``value`` is zeta.
    """

    name: str
    inputs: dict
    value: float
    clamped: float | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The report as JSON-ready values: a Fraction input as its string."""
        inputs = {k: str(v) if isinstance(v, Fraction) else v for k, v in self.inputs.items()}
        data = {"name": self.name, "inputs": inputs, "value": self.value}
        if self.clamped is not None:
            data["clamped"] = self.clamped
        if self.details:
            data["details"] = dict(self.details)
        return data


_EVALUATORS: dict[str, tuple[Callable, bool]] = {
    # name: (evaluator, whether its value is a probability to clamp)
    "threshold_L": (threshold_L, False),
    "lower_ell": (lower_ell, False),
    "target_load": (target_maxload, False),
    "lemma22": (lemma22_bound, True),
    "lemma23": (lemma23_bound, True),
    "prop41": (prop41_bound, True),
    "prop51": (prop51_bound, True),
    "stage_params": (stage_params, False),
    "rejection_budget": (rejection_budget, False),
}

BOUND_NAMES = tuple(_EVALUATORS)


def _recorded(value):
    """An input as a report records it: integers, numpy's included, as int."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return operator.index(value)
    return value


def evaluate(name: str, **params) -> BoundReport:
    """Evaluate the named bound with keyword parameters into a report."""
    try:
        evaluator, is_probability = _EVALUATORS[name]
    except KeyError:
        known = ", ".join(BOUND_NAMES)
        raise DomainError(f"unknown bound {name!r}; expected one of: {known}") from None
    try:
        result = evaluator(**params)
    except TypeError as exc:
        raise DomainError(f"bad parameters for bound {name!r}: {exc}") from None
    details = {}
    if isinstance(result, Prop41Result):
        result, details = result.value, {"exponent": result.exponent}
    elif isinstance(result, StageParams):
        result, details = result.zeta, result._asdict()
    value = float(result)
    inputs = {key: _recorded(item) for key, item in params.items()}
    return BoundReport(name, inputs, value, clamp(value) if is_probability else None, details)
