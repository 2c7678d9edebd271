"""The integer rule at every public entry.

Counts, levels and seeds follow ``operator.index``: Python and numpy
integers pass and behave alike, while bools, floats and strings are
refused with the entry's documented ``ThinlabError`` subclass, as is a
count below its minimum.  A seed may be any integer; it is masked to 64
bits, so a seed outside [0, 2**64) runs the streams of its residue.
"""

import hashlib

import numpy as np
import pytest

from thinlab import bounds
from thinlab.engine import run, run_summary, run_summary_batch, run_with_streams
from thinlab.errors import ConfigurationError, DomainError
from thinlab.experiments import ExperimentConfig, run_trials
from thinlab.oracle import (
    exact_maxload_distribution,
    exact_one_choice_maxload,
    poissonization_check,
)
from thinlab.rng import RngStream
from thinlab.strategies import StrategySpec


def _streams_run(n, t, seed):
    trace = run_with_streams(n, t, "threshold:1,k=2", RngStream(1), RngStream(2), seed=seed,
                             method="auto")
    return trace.to_json()


def _campaign(n, trials, base_seed, t):
    config = ExperimentConfig(n=n, strategy="threshold:1", trials=trials, base_seed=base_seed, t=t)
    stats = run_trials(config, workers=1)
    return config, stats.as_dict(), stats.per_trial_seeds


# entry: (call, valid integer arguments, the least value of each (None: no
# least value), the error it raises, a view of the result to compare).
ENTRIES = {
    "run": (
        lambda n, t, seed: run(n, t, "threshold:1,k=2", seed),
        dict(n=8, t=30, seed=5), dict(n=1, t=0, seed=None),
        ConfigurationError, lambda trace: trace.to_json(),
    ),
    "run_with_streams": (
        _streams_run, dict(n=8, t=30, seed=5), dict(n=1, t=0, seed=None),
        ConfigurationError, lambda text: text,
    ),
    "run_summary": (
        lambda n, t, seed: run_summary(n, t, "two-choices", seed),
        dict(n=8, t=30, seed=5), dict(n=1, t=0, seed=None),
        ConfigurationError, lambda result: (result[0].tolist(), result[1]),
    ),
    "run_summary_batch": (  # one seed is counted as a run, two as a grid
        lambda n, t, seed: [run_summary_batch(n, t, "threshold:1", seeds)
                            for seeds in ([seed], [seed, 6])],
        dict(n=8, t=30, seed=5), dict(n=1, t=0, seed=None),
        ConfigurationError, lambda batches: [list(batch) for batch in batches],
    ),
    "ExperimentConfig": (
        _campaign, dict(n=20, trials=3, base_seed=5, t=20),
        dict(n=1, trials=1, base_seed=None, t=0), ConfigurationError, lambda result: result,
    ),
    "exact_maxload_distribution": (
        lambda n, t: exact_maxload_distribution(n, t, "threshold:1"),
        dict(n=2, t=2), dict(n=1, t=0), ConfigurationError, lambda pmf: pmf,
    ),
    "exact_one_choice_maxload": (
        exact_one_choice_maxload, dict(n=3, t=4), dict(n=1, t=0),
        ConfigurationError, lambda pmf: pmf,
    ),
    "poissonization_check": (
        lambda n, t, level: poissonization_check(n, t, "max_ge_a", level),
        dict(n=3, t=4, level=2), dict(n=1, t=1, level=0), ConfigurationError, tuple,
    ),
    "StrategySpec": (
        lambda ell, retry_budget: StrategySpec("threshold", ell=ell, retry_budget=retry_budget),
        dict(ell=3, retry_budget=2), dict(ell=1, retry_budget=1), ConfigurationError,
        lambda spec: (spec, spec.label, type(spec.ell), type(spec.retry_budget)),
    ),
    "bounds.evaluate": (
        lambda n, a: (bounds.evaluate("prop41", n=n, eta=4.0),
                      bounds.evaluate("lemma22", theta=0.5, a=a, s_size=10.0)),
        dict(n=100, a=2), dict(n=16, a=1), DomainError,
        lambda reports: [report.as_dict() for report in reports],
    ),
}

CASES = [
    (entry, name) for entry, (_call, valid, _least, _error, _view) in ENTRIES.items()
    for name in valid
]


@pytest.mark.parametrize("entry, name", CASES)
def test_non_integers_and_values_below_the_least_are_refused(entry, name):
    call, valid, least, error, _view = ENTRIES[entry]
    bad = [True, float(valid[name]), str(valid[name])]
    if least[name] is not None:
        bad.append(least[name] - 1)
    for value in bad:
        with pytest.raises(error):
            call(**{**valid, name: value})


@pytest.mark.parametrize("entry, name", CASES)
@pytest.mark.parametrize("integer", [np.int64, np.uint16])
def test_numpy_integers_give_the_results_of_python_ints(entry, name, integer):
    call, valid, _least, _error, view = ENTRIES[entry]
    assert view(call(**{**valid, name: integer(valid[name])})) == view(call(**valid))


SEEDED = [(entry, name) for entry, name in CASES if "seed" in name]


@pytest.mark.parametrize("entry, name", SEEDED)
@pytest.mark.parametrize("seed", [1.5, "a", None])
def test_seeds_follow_the_integer_rule(entry, name, seed):
    call, valid, _least, _error, _view = ENTRIES[entry]
    if seed is None and entry == "run_with_streams":
        call(**{**valid, name: seed})  # its seed only labels the trace
        return
    with pytest.raises(ConfigurationError):
        call(**{**valid, name: seed})


# sha256 of run(8, 30, strategy, seed).to_json(), recorded before seeds were
# checked.  -1 and 2**64 - 1 differ only in the recorded seed.
PINNED = {
    ("threshold:1,k=2", -1): "3b58f4698eee632aae4f7896b8ac60f45db85de2a63923dc5d0898af4af1f25e",
    ("threshold:1,k=2", 2**70): "841a5ac185b97bebdd9d6cdf093260178c99be06cf2a09b6280f39b666b7b000",
    ("threshold:1,k=2", 2**64 - 1):
        "9c25ec0e512e77fa198dd7ffbd882bc6cf11fd80de3937652e3f48674d090600",
    ("two-choices", -1): "b48307006094c90e3f5db5d5192b9bf547ab252ca6d019c82aaa2e4066b14de3",
    ("two-choices", 2**70): "65a65b2d0d7c5d88738de8bceaa26d15cba3e37756e04d864972c78b8ecd5042",
    ("two-choices", 2**64 - 1): "6d476ec6eef332c998a51674b281a4a48fde1320878edab0a898a7f4e9af0bf8",
}


@pytest.mark.parametrize("strategy", ["threshold:1,k=2", "two-choices"])
@pytest.mark.parametrize("seed", [-1, 2**70, np.uint64(2**64 - 1)])
def test_any_integer_seed_keeps_its_trace(strategy, seed):
    trace = run(8, 30, strategy, seed)
    digest = hashlib.sha256(trace.to_json().encode()).hexdigest()
    assert digest == PINNED[strategy, int(seed)]
    loads, rejections = run_summary(8, 30, strategy, seed)
    assert loads.tolist() == trace.loads.tolist()
    assert rejections == trace.final_state.rejections
    masked = int(seed) & (2**64 - 1)
    assert run(8, 30, strategy, masked).final_state == trace.final_state
    counted = run(8, 30, "threshold:1", masked)
    expected = (int(counted.loads.max()), counted.final_state.rejections)
    for seeds in ([seed], [seed, seed]):  # a run, and a grid
        assert list(run_summary_batch(8, 30, "threshold:1", seeds)) == [expected] * len(seeds)
