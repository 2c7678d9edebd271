"""Accept/reject decision rules consulted by the allocation engine.

A thinning strategy sees the tally history and the current primary
suggestion, and decides whether to accept it; it never observes where a
rejected ball would land.  The two-choices baseline is deliberately NOT a
thinning strategy (it inspects the loads of both candidate bins before
choosing) and is exposed through a separate decision function, so it can
never be passed where a thinning rule is expected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import threshold_L
from .errors import ConfigurationError, _as_int

THRESHOLD = "threshold"
ALWAYS_ACCEPT = "always_accept"
ALWAYS_REJECT = "always_reject"
TWO_CHOICES_GREEDY = "two_choices_greedy"

KINDS = (THRESHOLD, ALWAYS_ACCEPT, ALWAYS_REJECT, TWO_CHOICES_GREEDY)

# Canonical spelling of each non-threshold kind in the strategy grammar.
_KIND_LABELS = {
    ALWAYS_ACCEPT: "one-choice",
    ALWAYS_REJECT: "always-reject",
    TWO_CHOICES_GREEDY: "two-choices",
}
_LABEL_KINDS = {label: kind for kind, label in _KIND_LABELS.items()}


@dataclass(frozen=True)
class StrategySpec:
    """Immutable description of a decision rule.

    ``ell`` is the threshold parameter, required exactly when ``kind`` is
    "threshold"; an unbounded threshold is rejected here (use always_accept
    for that behavior).  ``retry_budget`` allows a threshold strategy to
    veto up to k suggestions per ball; kinds other than threshold must keep
    the default budget of 1.  Both are stored as ``int``.
    """

    kind: str
    ell: int | None = None
    retry_budget: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            known = ", ".join(KINDS)
            raise ConfigurationError(
                f"unknown strategy kind {self.kind!r}; expected one of: {known}"
            )
        if self.kind == THRESHOLD:
            object.__setattr__(self, "ell", _as_int(self.ell, "threshold ell", 1))
        elif self.ell is not None:
            raise ConfigurationError(
                f"strategy kind {self.kind!r} does not take an ell parameter"
            )
        object.__setattr__(self, "retry_budget", _as_int(self.retry_budget, "retry budget", 1))
        if self.retry_budget > 1 and self.kind != THRESHOLD:
            raise ConfigurationError(
                "retry budgets above 1 are only valid for threshold strategies"
            )

    @property
    def is_thinning(self) -> bool:
        """Whether the strategy fits the thinning interface (decide)."""
        return self.kind != TWO_CHOICES_GREEDY

    @property
    def label(self) -> str:
        """Canonical strategy-grammar spelling of this spec."""
        if self.kind == THRESHOLD:
            text = f"threshold:{self.ell}"
            if self.retry_budget > 1:
                text += f",k={self.retry_budget}"
            return text
        return _KIND_LABELS[self.kind]


def decide(spec: StrategySpec, state, suggested_bin: int) -> bool:
    """Return True to accept the suggested bin, False to reject it.

    ``state`` is a read view exposing the tally vectors (0-indexed); the
    threshold rule rejects exactly when the suggested bin has already
    received ``ell`` primary suggestions before the current ball.
    """
    if spec.kind == THRESHOLD:
        return int(state.primary_suggested[suggested_bin]) < spec.ell
    if spec.kind == ALWAYS_ACCEPT:
        return True
    if spec.kind == ALWAYS_REJECT:
        return False
    raise ConfigurationError(
        f"strategy kind {spec.kind!r} is not a thinning rule; "
        "it cannot be used through decide"
    )


def two_choices_decide(state, primary_bin: int, secondary_bin: int) -> int:
    """Pick the less loaded of the two bins, preferring primary on a tie."""
    if int(state.load[secondary_bin]) < int(state.load[primary_bin]):
        return secondary_bin
    return primary_bin


def default_threshold_spec(n: int) -> StrategySpec:
    """Threshold spec at the size-adapted level L(n) = ceil(sqrt(2 ln n / ln ln n))."""
    n = _as_int(n, "the bin count of a default threshold level", 3)
    return StrategySpec(THRESHOLD, ell=threshold_L(n))


def parse_strategy(text: str | StrategySpec, n: int | None = None) -> StrategySpec:
    """Parse a strategy string into a spec; a spec is returned as it is.

    Grammar: "threshold:<ell>", "threshold:auto", "threshold:<ell>,k=<k>",
    "one-choice", "always-reject", "two-choices".  The "auto" level is
    resolved through :func:`default_threshold_spec` and therefore needs the
    bin count ``n``.
    """
    if isinstance(text, StrategySpec):
        return text
    if not isinstance(text, str):
        raise ConfigurationError(f"strategy must be a StrategySpec or string, got {text!r}")
    cleaned = text.strip().lower()
    if cleaned in _LABEL_KINDS:
        return StrategySpec(_LABEL_KINDS[cleaned])
    if not cleaned.startswith("threshold:"):
        raise ConfigurationError(
            f"unparsable strategy {text!r}; expected one of "
            "threshold:<ell>, threshold:auto, threshold:<ell>,k=<k>, "
            "one-choice, always-reject, two-choices"
        )
    body = cleaned[len("threshold:") :]
    parts = body.split(",")
    level_text = parts[0].strip()
    retry_budget = 1
    for extra in parts[1:]:
        key, _, value = extra.partition("=")
        if key.strip() != "k":
            raise ConfigurationError(
                f"unknown threshold option {extra.strip()!r} in {text!r}"
            )
        try:
            retry_budget = int(value.strip())
        except ValueError:
            raise ConfigurationError(
                f"retry budget must be an integer, got {value.strip()!r}"
            ) from None
    if level_text == "auto":
        if n is None:
            raise ConfigurationError(
                "threshold:auto needs the bin count to resolve the level"
            )
        ell = default_threshold_spec(n).ell
    else:
        try:
            ell = int(level_text)
        except ValueError:
            raise ConfigurationError(
                f"threshold level must be an integer or 'auto', got {level_text!r}"
            ) from None
    return StrategySpec(THRESHOLD, ell=ell, retry_budget=retry_budget)
