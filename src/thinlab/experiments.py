"""Monte Carlo campaigns over the allocation engine.

A campaign is a deterministic function of its configuration: trial i runs
on seed mix_seeds(base_seed, i), trials are embarrassingly parallel, and
aggregation folds results in trial order, so output is identical for any
worker count.  Scaling studies derive one campaign seed per grid point by
the same mixing, keyed on the bin count.

The load factor rho is held as an exact rational and the ball count is
floor(rho * n) in integer arithmetic, so grid boundaries can never shift
with platform float rounding.  String inputs like "1/2" or "0.5" convert
exactly, as do integers; other reals convert through their shortest decimal.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import rejection_budget, stage_params, target_maxload
from .counting import _counts_draws
from .engine import Trace, _check_budget, run_summary, run_summary_batch, summary_peak_bytes
from .errors import ConfigurationError, WorkerError, _as_int
from .rng import mix_seed_range, mix_seeds
from .strategies import StrategySpec, parse_strategy

WORKERS_ENV = "THINLAB_WORKERS"
WILSON_Z95 = 1.959963984540054


def parse_rho(value) -> Fraction:
    """Convert a load factor to an exact Fraction.

    Integers (numpy's included), Fractions and strings convert exactly
    ("1/2" and "0.5" both give one half); other reals go through their
    shortest decimal, ``str(value)``, so the conversion is reproducible and
    documented rather than binary-exact.  Bools, non-numbers, and
    non-finite or non-positive values raise ConfigurationError.
    """
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
        raise ConfigurationError(f"load factor must be numeric, got {value!r}")
    try:
        if isinstance(value, numbers.Rational):
            # A numpy integer's numerator is a numpy integer; Fraction would keep it.
            rho = Fraction(operator.index(value.numerator), operator.index(value.denominator))
        else:
            rho = Fraction(str(value).strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"unparsable load factor {value!r}") from None
    if rho <= 0:
        raise ConfigurationError(f"load factor must be positive, got {value!r}")
    return rho


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo campaign: bin count, ball count, strategy, trials.

    Exactly one of ``rho`` (ball count = floor(rho * n)) and ``t`` must be
    given.  ``strategy`` may be a grammar string (resolved against ``n``,
    so "threshold:auto" adapts) or a ready StrategySpec.  The integer
    fields are stored as ``int``.
    """

    n: int
    strategy: str | StrategySpec
    trials: int
    base_seed: int
    rho: object = None
    t: int | None = None

    def __post_init__(self):
        if (self.rho is None) == (self.t is None):
            raise ConfigurationError(
                "exactly one of the load factor rho and the ball count t is required"
            )
        if self.rho is not None:
            object.__setattr__(self, "rho", parse_rho(self.rho))
        counts = [("n", "bin count", 1), ("trials", "trials", 1), ("base_seed", "base seed", None)]
        if self.t is not None:
            counts.append(("t", "ball count", 0))
        for name, what, minimum in counts:
            object.__setattr__(self, name, _as_int(getattr(self, name), what, minimum))
        self.spec  # fail fast on an unparsable strategy

    @property
    def spec(self) -> StrategySpec:
        return parse_strategy(self.strategy, n=self.n)

    @property
    def ball_count(self) -> int:
        if self.t is not None:
            return self.t
        return int(self.rho * self.n)  # Fraction times int floors exactly via int()

    def trial_seed(self, index: int) -> int:
        return mix_seeds(self.base_seed, index)


def type1_quantile(sorted_values: Sequence[int], p: float):
    """Lower (type-1) quantile of pre-sorted data: no interpolation."""
    if not sorted_values:
        raise ConfigurationError("quantile of empty data is undefined")
    if not 0 < p <= 1:
        raise ConfigurationError(f"quantile level must lie in (0, 1], got {p}")
    index = max(math.ceil(p * len(sorted_values)), 1)
    return sorted_values[index - 1]


@dataclass(frozen=True)
class SummaryStats:
    """Per-trial outcomes and order statistics of one campaign."""

    n: int
    t: int
    strategy_label: str
    trials: int
    base_seed: int
    per_trial_seeds: tuple[int, ...]
    per_trial_maxload: tuple[int, ...]
    per_trial_rejections: tuple[int, ...]
    mean_maxload: float
    median_maxload: int
    quantiles: dict
    normalized_ratio: float | None

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "strategy": self.strategy_label,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "mean_maxload": self.mean_maxload,
            "median_maxload": self.median_maxload,
            "quantiles": dict(self.quantiles),
            "normalized_ratio": self.normalized_ratio,
            "per_trial_maxload": list(self.per_trial_maxload),
            "per_trial_rejections": list(self.per_trial_rejections),
        }

    def tail(self, level: int) -> TailEstimate:
        """Estimate P(max load > level) from the campaign's trials."""
        level = _check_tail_request(level, self.trials)
        successes = sum(1 for m in self.per_trial_maxload if m > level)
        low, high = wilson_interval(successes, self.trials)
        return TailEstimate(
            level=level,
            successes=successes,
            trials=self.trials,
            p_hat=successes / self.trials,
            wilson_low=low,
            wilson_high=high,
        )


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = 1
    return _as_int(workers, "worker count", 1)


# Bytes that run_trials holds per trial besides the kernel's: the trial's
# seed (a 64-bit int, 36 bytes, and its slots in the seed list, its chunk
# and the stats), its outcome tuple (56 bytes and a slot) and rejection
# count (a 28-byte int), and its slots in the flattened outcomes, the two
# per-trial tuples and the sorted max loads.  tracemalloc saw 155 bytes per
# trial in a 10**5-trial campaign.
_TRIAL_RESULT_BYTES = 192


def _check_memory(n: int, t: int, spec: StrategySpec, trials: int, workers: int) -> None:
    # Each worker runs one chunk of trials at a time, which holds at most
    # summary_peak_bytes at once.
    needed = summary_peak_bytes(n, t, spec) * workers + _TRIAL_RESULT_BYTES * trials
    _check_budget(needed, f"a campaign of {trials} trials on {workers} workers")


def _run_chunk(args: tuple) -> list[tuple[int, int]]:
    """(max load, rejections) of each trial of one chunk, in seed order."""
    n, t, spec, seeds = args
    if _counts_draws(spec):
        return list(run_summary_batch(n, t, spec, seeds))
    outcomes = []
    for seed in seeds:
        loads, rejections = run_summary(n, t, spec, seed)
        outcomes.append((int(loads.max()), rejections))
    return outcomes


def run_trials(config: ExperimentConfig, workers: int | None = None) -> SummaryStats:
    """Run the campaign and summarize max loads and rejections.

    Deterministic in (config), whatever the worker count: trial i always
    runs on the same derived seed and results are folded in trial order.
    The trials are split into contiguous chunks, about four per worker,
    and each chunk is one task: one :func:`run_summary_batch` call for
    one-choice, always-reject and threshold with k = 1, so a chunk's
    trials share one load table or one grid of draws, and one
    :func:`run_summary` call per trial for the other strategies.  A batch
    of those would make the same runs, one at a time; the per-trial calls
    stay because ``benchmarks/workloads.py`` spans each of them to time
    the two-choices and k > 1 kernels per trial.  A 1-worker campaign
    runs the same chunks in this process.
    """
    workers = _resolve_workers(workers)
    spec = config.spec
    n, t, trials = config.n, config.ball_count, config.trials
    _check_memory(n, t, spec, trials, workers)
    seeds = mix_seed_range(config.base_seed, trials).tolist()
    size = max(1, trials // (workers * 4))
    chunks = [(n, t, spec, seeds[i : i + size]) for i in range(0, trials, size)]
    if workers == 1 or len(chunks) == 1:
        done = [_run_chunk(chunk) for chunk in chunks]
    else:
        # Imported here, so that importing thinlab does not pay for the
        # process pool machinery that single-worker runs never use.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                done = list(pool.map(_run_chunk, chunks))
        except BrokenProcessPool as exc:
            raise WorkerError(
                f"a worker process died during the campaign ({exc})"
            ) from exc
    outcomes = [outcome for chunk in done for outcome in chunk]
    maxloads = tuple(m for m, _ in outcomes)
    rejections = tuple(r for _, r in outcomes)
    ordered = sorted(maxloads)
    median = type1_quantile(ordered, 0.5)
    quantiles = {
        "p50": median,
        "p90": type1_quantile(ordered, 0.9),
        "p99": type1_quantile(ordered, 0.99),
        "max": ordered[-1],
    }
    ratio = median / target_maxload(n) if n >= 3 else None
    return SummaryStats(
        n=n,
        t=t,
        strategy_label=spec.label,
        trials=trials,
        base_seed=config.base_seed,
        per_trial_seeds=tuple(seeds),
        per_trial_maxload=maxloads,
        per_trial_rejections=rejections,
        mean_maxload=sum(maxloads) / trials,
        median_maxload=median,
        quantiles=quantiles,
        normalized_ratio=ratio,
    )


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    trials = _as_int(trials, "trials", 1)
    successes = _as_int(successes, "successes", 0)
    if successes > trials:
        raise ConfigurationError(f"successes must be at most {trials}, got {successes}")
    p_hat = successes / trials
    z2 = z * z
    center = (p_hat + z2 / (2 * trials)) / (1 + z2 / trials)
    radius = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z2 / (4 * trials * trials))
        / (1 + z2 / trials)
    )
    low = 0.0 if successes == 0 else max(0.0, center - radius)
    high = 1.0 if successes == trials else min(1.0, center + radius)
    return low, high


class TailEstimate(NamedTuple):
    """Empirical exceedance probability with a 95% Wilson interval."""

    level: int
    successes: int
    trials: int
    p_hat: float
    wilson_low: float
    wilson_high: float


def _check_tail_request(level, trials: int) -> int:
    """The tail level, checked, once the trial count is known to suffice."""
    level = _as_int(level, "level", 0)
    if trials < 100:
        raise ConfigurationError(
            f"tail estimation needs at least 100 trials, got {trials}"
        )
    return level


def tail_estimate(
    config: ExperimentConfig, level: int, workers: int | None = None
) -> TailEstimate:
    """Estimate P(max load > level) over the campaign's trials."""
    _check_tail_request(level, config.trials)  # before running the campaign
    return run_trials(config, workers=workers).tail(level)


class ScaleRow(NamedTuple):
    """One scaling-study grid point."""

    n: int
    target: float
    median_maxload: int
    ratio: float
    trials: int


def scaling_study(
    n_grid: Sequence[int],
    rho,
    strategy,
    trials: int,
    base_seed: int,
    workers: int | None = None,
) -> list[ScaleRow]:
    """Median max load against the size target across an ascending grid.

    Each grid point runs its own campaign on seed mix_seeds(base_seed, n).
    Strategy strings resolve per grid point, so "threshold:auto" uses the
    level appropriate to each n.
    """
    grid = list(n_grid)
    if not grid:
        raise ConfigurationError("the bin-count grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("the bin-count grid must be strictly ascending")
    rows = []
    for n in grid:
        config = ExperimentConfig(
            n=n,
            strategy=strategy,
            trials=trials,
            base_seed=mix_seeds(base_seed, n),
            rho=rho,
        )
        stats = run_trials(config, workers=workers)
        target = target_maxload(n)
        rows.append(
            ScaleRow(
                n=n,
                target=target,
                median_maxload=stats.median_maxload,
                ratio=stats.median_maxload / target,
                trials=trials,
            )
        )
    return rows


class StageRow(NamedTuple):
    """Stage k outcome: suggestion-rich bin count and the two event flags."""

    k: int
    rich_bins: int
    count_below_zeta: bool
    load_below_target: bool


@dataclass(frozen=True)
class StageDiagnostics:
    """Observed stage decomposition of one trace.

    Stage k (of s, each w balls) looks at the first k*w balls: rich_bins
    counts bins holding at least k primary suggestions by then;
    count_below_zeta flags rich_bins < n * zeta^k; load_below_target flags
    max load < (2 - epsilon) * ell at that point.  The final partial stage
    beyond s*w balls is deliberately not inspected.
    """

    n: int
    rho: Fraction
    epsilon: float
    ell: int
    s: int
    w: int
    zeta: float
    per_stage: tuple[StageRow, ...]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "rho": str(self.rho),
            "epsilon": self.epsilon,
            "ell": self.ell,
            "s": self.s,
            "w": self.w,
            "zeta": self.zeta,
            "stages": [
                {
                    "k": row.k,
                    "rich_bins": row.rich_bins,
                    "count_below_zeta": row.count_below_zeta,
                    "load_below_target": row.load_below_target,
                }
                for row in self.per_stage
            ],
        }


def stage_diagnostics(trace: Trace, rho, epsilon: float) -> StageDiagnostics:
    """Evaluate the stage decomposition events on a recorded trace.

    rich_bins is computed from primary suggestions (accepted or not),
    exactly as the stage set is defined; it is NOT clipped to be monotone
    across stages, because the literal per-stage definition can admit a
    bin into stage k+1 that stage k missed.
    """
    rho = parse_rho(rho)
    params = stage_params(trace.n, rho, epsilon)
    needed = params.s * params.w
    if trace.t < needed:
        raise ConfigurationError(
            f"stage diagnostics need a trace of at least s*w = {params.s}*{params.w} "
            f"= {needed} balls, got {trace.t}"
        )
    n = trace.n
    load_target = (2 - epsilon) * params.ell
    rows = []
    for k in range(1, params.s + 1):
        upto = k * params.w
        suggested = np.bincount(trace.primary_bins[:upto], minlength=n)
        rich = int((suggested >= k).sum())
        max_load_now = int(np.bincount(trace.final_bins[:upto], minlength=n).max())
        rows.append(
            StageRow(
                k=k,
                rich_bins=rich,
                count_below_zeta=rich < n * params.zeta**k,
                load_below_target=max_load_now < load_target,
            )
        )
    return StageDiagnostics(
        n=n,
        rho=rho,
        epsilon=epsilon,
        ell=params.ell,
        s=params.s,
        w=params.w,
        zeta=params.zeta,
        per_stage=tuple(rows),
    )


class RejectionStats(NamedTuple):
    """Total rejections and their ratio to the size-derived budget."""

    total_rejections: int
    budget_ratio: float


def rejection_stats(trace: Trace) -> RejectionStats:
    """Rejections of a run against the 2n/L! budget for its bin count."""
    total = trace.final_state.rejections
    return RejectionStats(total, total / rejection_budget(trace.n))
