"""Tests for strategy specs, the decision rules, and the string grammar."""

import numpy as np
import pytest

from thinlab.errors import ConfigurationError
from thinlab.strategies import (
    StrategySpec,
    decide,
    default_threshold_spec,
    parse_strategy,
    two_choices_decide,
)


class FakeState:
    """Minimal tally view for exercising decision rules in isolation."""

    def __init__(self, primary_suggested=(), load=()):
        self.primary_suggested = np.asarray(primary_suggested, dtype=np.int64)
        self.load = np.asarray(load, dtype=np.int64)


def test_threshold_decision_uses_pre_ball_count():
    spec = StrategySpec("threshold", ell=4)
    assert decide(spec, FakeState(primary_suggested=[3]), 0) is True
    assert decide(spec, FakeState(primary_suggested=[4]), 0) is False
    assert decide(spec, FakeState(primary_suggested=[9]), 0) is False


def test_constant_strategies():
    history = FakeState(primary_suggested=[100, 0])
    assert decide(StrategySpec("always_accept"), history, 0) is True
    assert decide(StrategySpec("always_reject"), history, 1) is False


def test_two_choices_picks_lesser_with_primary_ties():
    state = FakeState(load=[2, 1, 2])
    assert two_choices_decide(state, 0, 1) == 1
    assert two_choices_decide(state, 0, 2) == 0  # tie goes to primary
    assert two_choices_decide(state, 1, 0) == 1


def test_two_choices_rejected_by_thinning_interface():
    spec = StrategySpec("two_choices_greedy")
    assert not spec.is_thinning
    with pytest.raises(ConfigurationError):
        decide(spec, FakeState(primary_suggested=[0]), 0)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        StrategySpec("no_such_kind")
    with pytest.raises(ConfigurationError):
        StrategySpec("threshold")  # ell required
    with pytest.raises(ConfigurationError):
        StrategySpec("threshold", ell=0)
    with pytest.raises(ConfigurationError):
        StrategySpec("threshold", ell=float("inf"))
    with pytest.raises(ConfigurationError):
        StrategySpec("threshold", ell=True)
    with pytest.raises(ConfigurationError):
        StrategySpec("always_accept", ell=3)
    with pytest.raises(ConfigurationError):
        StrategySpec("threshold", ell=2, retry_budget=0)
    with pytest.raises(ConfigurationError):
        StrategySpec("always_reject", retry_budget=2)
    assert StrategySpec("threshold", ell=2, retry_budget=3).retry_budget == 3


def test_default_threshold_spec_levels():
    assert default_threshold_spec(10**6) == StrategySpec("threshold", ell=4)
    assert default_threshold_spec(100).ell == 3
    assert default_threshold_spec(3).ell == 5
    with pytest.raises(ConfigurationError):
        default_threshold_spec(2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("threshold:4", StrategySpec("threshold", ell=4)),
        ("threshold:1", StrategySpec("threshold", ell=1)),
        ("threshold:4,k=2", StrategySpec("threshold", ell=4, retry_budget=2)),
        ("one-choice", StrategySpec("always_accept")),
        ("always-reject", StrategySpec("always_reject")),
        ("two-choices", StrategySpec("two_choices_greedy")),
    ],
)
def test_grammar_round_trip(text, expected):
    spec = parse_strategy(text)
    assert spec == expected
    assert spec.label == text
    assert parse_strategy(spec.label) == spec


def test_grammar_auto_resolution():
    assert parse_strategy("threshold:auto", n=10**6).ell == 4
    assert parse_strategy("threshold:auto,k=3", n=10**6).retry_budget == 3
    with pytest.raises(ConfigurationError):
        parse_strategy("threshold:auto")  # bin count required


@pytest.mark.parametrize(
    "text",
    [
        "",
        "threshold",
        "threshold:",
        "threshold:x",
        "threshold:4,j=2",
        "threshold:4,k=zero",
        "three-choices",
        "accept",
        "threshold:2,k=2,k=3",
        "threshold:4,k=2,j=1",
        "threshold:+3",
        "threshold:-1",
        "threshold:1_0",
        "threshold:\u0663",
        "threshold:2,k=+2",
        "threshold:4,\u212a=2",
        "threshold: 4",
        pytest.param("threshold:" + "9" * 641, id="641-digit-level"),
    ],
)
def test_grammar_rejects_garbage(text):
    with pytest.raises(ConfigurationError):
        parse_strategy(text, n=100)


def test_grammar_inverts_every_threshold_label():
    for ell in range(1, 21):
        for k in range(1, 6):
            spec = StrategySpec("threshold", ell=ell, retry_budget=k)
            assert parse_strategy(spec.label) == spec


@pytest.mark.parametrize("n,ell", [(3, 5), (100, 3), (10**6, 4)])
def test_grammar_resolves_auto_at_each_size(n, ell):
    assert parse_strategy("threshold:auto", n=n) == StrategySpec("threshold", ell=ell)
    assert parse_strategy("threshold:auto,k=3", n=n) == StrategySpec(
        "threshold", ell=ell, retry_budget=3)


def test_grammar_tolerates_spacing_and_case():
    assert parse_strategy("  Threshold:4 ").ell == 4
    assert parse_strategy("ONE-CHOICE").kind == "always_accept"


def test_labels_are_canonical():
    assert StrategySpec("threshold", ell=7).label == "threshold:7"
    assert StrategySpec("threshold", ell=2, retry_budget=4).label == "threshold:2,k=4"
    assert StrategySpec("two_choices_greedy").label == "two-choices"
