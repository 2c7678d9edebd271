"""Self-contained invariant batteries for the ``check`` CLI subcommand.

Each suite returns a list of :class:`CheckResult` rows; a row records one
named invariant, whether it held, and a short human-readable detail.  The
suites are deterministic (fixed seeds) and sized to finish in seconds.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, oracle
from .engine import level_set_count, max_load, run, run_reference
from .errors import ConfigurationError
from .rng import _seed_streams
from .strategies import THRESHOLD, StrategySpec, parse_strategy
from .trace import replay, trace_from_json

SUITE_NAMES = ("engine", "bounds", "oracle", "all")

_ENGINE_CONFIGS = (
    (7, 14, "threshold:1"),
    (10, 10, "threshold:2"),
    (12, 30, "threshold:3,k=2"),
    (9, 18, "one-choice"),
    (8, 16, "always-reject"),
    (11, 22, "two-choices"),
)

_SMALL_INSTANCES = ((2, 2), (2, 3), (3, 2), (3, 3))


class CheckResult(NamedTuple):
    """Outcome of one invariant check."""

    name: str
    passed: bool
    detail: str


def _check(rows: list[CheckResult], name: str, passed: bool, detail: str) -> None:
    rows.append(CheckResult(name, bool(passed), detail))


def engine_suite(seed: int = 2024) -> list[CheckResult]:
    """Conservation, decomposition, replay, and path-equivalence checks."""
    rows: list[CheckResult] = []
    for n, t, strategy in _ENGINE_CONFIGS:
        spec = parse_strategy(strategy, n=n)
        trace = run(n, t, spec, seed)
        state = trace.final_state
        tag = f"n={n},t={t},{strategy}"

        _check(
            rows,
            f"conservation[{tag}]",
            int(trace.loads.sum()) == t,
            f"sum of loads {int(trace.loads.sum())} vs balls {t}",
        )
        decomposed = state.primary_accepted + state.secondary_used
        _check(
            rows,
            f"decomposition[{tag}]",
            bool(np.array_equal(state.load, decomposed)),
            "load == primary_accepted + secondary_used per bin",
        )
        if spec.kind == THRESHOLD:
            cap = int(state.primary_accepted.max())
            _check(
                rows,
                f"threshold-cap[{tag}]",
                cap <= spec.ell,
                f"max accepted-primary count {cap} vs ell {spec.ell}",
            )
        if spec.is_thinning and spec.retry_budget == 1:
            _check(
                rows,
                f"suggestion-total[{tag}]",
                int(state.primary_suggested.sum()) == t,
                "each ball contributes one primary suggestion",
            )

        replayed = replay(trace)
        _check(
            rows,
            f"replay[{tag}]",
            replayed == state,
            "record replay reproduces the final state",
        )

        round_trip = trace_from_json(trace.to_json())
        _check(
            rows,
            f"json-roundtrip[{tag}]",
            all(
                np.array_equal(getattr(round_trip, column), getattr(trace, column))
                for column in ("primary_bins", "final_bins", "reject_counts", "loads")
            )
            and round_trip.final_state == state,
            "serialize + parse preserves every column and the loads",
        )

        # The pool indices are derived from the reject counts; each ball that
        # went to the pool must have landed on the draw its index names.
        landed = trace.reject_counts > 0
        pool_indices = trace.pool_indices[landed]
        draws = int(pool_indices.max()) + 1 if pool_indices.size else 0
        pool = _seed_streams(seed)[1].bounded_block(n, draws)
        consumed = bool(np.array_equal(pool[pool_indices], trace.final_bins[landed]))
        if not spec.is_thinning:
            _check(
                rows,
                f"pool-alignment[{tag}]",
                consumed,
                "each ball that moved landed on its own pool slot",
            )
        else:
            _check(
                rows,
                f"pool-contiguity[{tag}]",
                consumed,
                "each rejected ball landed on the pool draw its running reject total names",
            )

        _check(
            rows,
            f"maxload-agrees[{tag}]",
            max_load(state) == int(trace.loads.max()),
            "max_load matches the load vector",
        )
        nonempty = int((trace.loads >= 1).sum())
        _check(
            rows,
            f"levelset-agrees[{tag}]",
            level_set_count(state, "load", 1) == nonempty,
            "level-1 load count matches the load vector",
        )

        # Two-choices is compared path against path in tests/test_engine.py.
        # A row for it here would change the row count of run_suite("all"),
        # which benchmarks/digests.json records for the oracle workload.
        if spec.is_thinning:
            other = run_reference(n, t, spec, *_seed_streams(seed), seed=seed)
            same = np.array_equal(other.final_bins, trace.final_bins) and other.final_state == state
            _check(rows, f"method-equivalence[{tag}]", bool(same),
                   "vectorized and reference paths agree")
    return rows


def bounds_suite() -> list[CheckResult]:
    """Known values, identities, and monotonicity of the bound evaluators."""
    rows: list[CheckResult] = []
    _check(
        rows,
        "threshold-level-known",
        bounds.threshold_L(10**6) == 4
        and bounds.threshold_L(100) == 3
        and bounds.threshold_L(3) == 5,
        "spot values of the ceil-sqrt level",
    )
    _check(
        rows,
        "floor-ceil-pair",
        all(bounds.lower_ell(n) <= bounds.threshold_L(n) for n in (3, 10, 10**4, 10**6)),
        "floor variant never exceeds ceil variant",
    )
    target_ok = all(
        math.isclose(
            bounds.target_maxload(n),
            2 * math.sqrt(2 * math.log(n) / math.log(math.log(n))),
            rel_tol=1e-12,
        )
        for n in (3, 100, 10**6)
    )
    _check(rows, "target-identity", target_ok, "sqrt(8 ln n / ln ln n) both ways")

    report = bounds.evaluate("prop41", n=10**6, eta=4)
    rebuilt = 2 * math.exp(report.details["exponent"] * math.log(10**6)) + 2 * math.exp(
        -math.sqrt(10**6)
    )
    _check(
        rows,
        "prop41-exponent-consistent",
        math.isclose(report.value, rebuilt, rel_tol=1e-12),
        "headline value rebuilt from the reported exponent",
    )

    clamp_ok = True
    for theta in (0.25, 0.5, 1.0):
        for s_size in (10, 100, 1000):
            rep = bounds.evaluate("lemma23", theta=theta, s_size=s_size)
            clamp_ok &= 0.0 <= rep.clamped <= 1.0 and rep.clamped <= max(rep.value, 1.0)
    _check(rows, "clamped-in-unit-interval", clamp_ok, "lemma23 grid")

    lemma22_vals = [
        bounds.lemma22_bound(0.5, 2, s) for s in (50, 100, 200, 400)
    ]
    _check(
        rows,
        "lemma22-monotone-in-set-size",
        all(a > b for a, b in zip(lemma22_vals, lemma22_vals[1:])),
        "bound decreases as the bin set grows",
    )

    coverage_ok = True
    for n in (100, 10**4, 10**6):
        for rho, eps in ((1, 0.5), (1, 1.0), (2, 0.5)):
            params = bounds.stage_params(n, rho, eps)
            coverage_ok &= params.s * params.w >= int(rho * n) // 2
    _check(rows, "stage-windows-cover", coverage_ok, "s*w spans at least half the balls")

    dispatch_ok = True
    samples = {
        "threshold_L": {"n": 1000},
        "lower_ell": {"n": 1000},
        "target_load": {"n": 1000},
        "lemma22": {"theta": 0.5, "a": 2, "s_size": 100},
        "lemma23": {"theta": 0.5, "s_size": 1000},
        "prop41": {"n": 10**6, "eta": 4},
        "prop51": {"n": 10**6, "epsilon": 0.5},
        "stage_params": {"n": 10**6, "rho": 1, "epsilon": 0.5},
        "rejection_budget": {"n": 10**6},
    }
    for name in bounds.BOUND_NAMES:
        rep = bounds.evaluate(name, **samples[name])
        dispatch_ok &= rep.name == name and math.isfinite(rep.value)
    _check(rows, "evaluator-dispatch", dispatch_ok, "every named bound evaluates")
    return rows


def oracle_suite(n: int | None = None, t: int | None = None) -> list[CheckResult]:
    """Exact-distribution identities and the poissonization battery."""
    if (n is None) != (t is None):
        raise ConfigurationError("oracle checks need both n and t, or neither")
    rows: list[CheckResult] = []
    instances = ((n, t),) if n is not None else _SMALL_INSTANCES

    for inst_n, inst_t in instances:
        tag = f"n={inst_n},t={inst_t}"
        accept = oracle.exact_maxload_distribution(inst_n, inst_t, "one-choice")
        reject = oracle.exact_maxload_distribution(inst_n, inst_t, "always-reject")
        dp = oracle.exact_one_choice_maxload(inst_n, inst_t)
        _check(
            rows,
            f"accept-equals-dp[{tag}]",
            accept == dp,
            "one-choice state-pass pmf matches the power recurrence",
        )
        _check(
            rows,
            f"reject-equals-accept[{tag}]",
            reject == accept,
            "rejecting every primary is one-choice on the secondary pool",
        )
        threshold = oracle.exact_maxload_distribution(
            inst_n, inst_t, StrategySpec(THRESHOLD, ell=1)
        )
        dominance = all(
            threshold.tail(level) <= accept.tail(level)
            for level in range(1, inst_t + 1)
        )
        _check(
            rows,
            f"threshold-dominates[{tag}]",
            dominance,
            "threshold:1 max-load tail never exceeds one-choice",
        )
        _check(
            rows,
            f"pmf-normalized[{tag}]",
            sum(threshold.probs) == 1,
            "exact probabilities sum to one",
        )

    poisson_instances = ((n, t),) if n is not None else tuple(
        (pn, pt) for pn in (2, 3, 4) for pt in (1, 2, 3, 4)
    )
    for inst_n, inst_t in poisson_instances:
        worst = None
        holds = True
        for statistic in oracle.STATISTICS:
            top = inst_t if statistic == "max_ge_a" else inst_t + 1
            for level in range(1, top + 1):
                result = oracle.poissonization_check(inst_n, inst_t, statistic, level)
                holds &= result.holds
                margin = result.rhs - result.lhs
                if worst is None or margin < worst:
                    worst = margin
        _check(
            rows,
            f"poissonization[n={inst_n},t={inst_t}]",
            holds,
            f"exact probability <= twice the product bound; min slack {worst:.3g}",
        )
    return rows


_SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "engine": engine_suite,
    "bounds": bounds_suite,
    "oracle": oracle_suite,
}


def run_suite(suite: str = "all") -> list[CheckResult]:
    """Run one named suite, or every suite for ``all``."""
    if suite == "all":
        rows: list[CheckResult] = []
        for name in ("engine", "bounds", "oracle"):
            rows.extend(_SUITES[name]())
        return rows
    if suite not in _SUITES:
        known = ", ".join(SUITE_NAMES)
        raise ConfigurationError(f"unknown check suite {suite!r}; expected one of: {known}")
    return _SUITES[suite]()
