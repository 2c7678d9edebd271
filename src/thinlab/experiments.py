"""Monte Carlo campaigns over the allocation engine.

A campaign is a deterministic function of its configuration: trial i runs
on seed mix_seeds(base_seed, i), trials are embarrassingly parallel, and
aggregation folds results in trial order, so output is identical for any
worker count.  Scaling studies derive one campaign seed per grid point by
the same mixing, keyed on the bin count.

The load factor rho is held as an exact rational, by the exact-rational
rule of :mod:`thinlab.errors`, and the ball count is floor(rho * n) in
integer arithmetic, so grid boundaries never shift with float rounding.

A request is checked whole before anything is drawn.  The stage plan of
a diagnosis, :func:`_stage_plan`, needs only n, t, rho and epsilon, its
memory bound, :func:`_diagnose_peak_bytes`, only n, t and the spec, and
:func:`scaling_study` checks every grid point's configuration, target and
memory guard before its first campaign.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import StageParams, rejection_budget, stage_params, target_maxload
from .counting import _counts_draws
from .engine import (
    _ball_count,
    run_summary,
    run_summary_batch,
    summary_peak_bytes,
    trace_peak_bytes,
)
from .errors import ConfigurationError, WorkerError, _as_fraction, _as_int, _check_budget, _shown
from .rng import mix_seed_range, mix_seeds
from .strategies import StrategySpec, parse_strategy
from .trace import Trace

WORKERS_ENV = "THINLAB_WORKERS"
WILSON_Z95 = 1.959963984540054


def parse_rho(value) -> Fraction:
    """Convert a load factor to an exact Fraction.

    The exact-rational rule of :func:`errors._as_fraction` ("1/2", "0.5"
    and 0.5 all give one half; 0.1 gives 1/10) plus positivity: bools,
    non-numbers, and non-finite or non-positive values raise
    ConfigurationError.
    """
    rho = _as_fraction(value, "load factor")
    if rho <= 0:
        raise ConfigurationError(f"load factor must be positive, got {_shown(value, repr)}")
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
    spec: StrategySpec = field(init=False, repr=False, compare=False)

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
        # Resolved once; an unparsable strategy fails here.
        object.__setattr__(self, "spec", parse_strategy(self.strategy, n=self.n))

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
            "per_trial_seeds": list(self.per_trial_seeds),
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
        env = os.environ.get(WORKERS_ENV, "").strip() or "1"
        try:
            workers = int(env)
        except ValueError:
            raise ConfigurationError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return _as_int(workers, "worker count", 1)


# Bytes that run_trials holds per trial besides the kernel's: the trial's
# seed (a 64-bit int, 36 bytes, and its slots in the seed list, its chunk
# and the stats), its outcome tuple (56 bytes and a slot) and rejection
# count (a 28-byte int), and its slots in the flattened outcomes, the two
# per-trial tuples and the sorted max loads.  tracemalloc saw 155 bytes per
# trial in a 10**5-trial campaign.
_TRIAL_RESULT_BYTES = 192


def _chunk_size(trials: int, workers: int) -> int:
    """Trials per chunk of a campaign: about four chunks per worker."""
    return max(1, trials // (workers * 4))


def _check_memory(n: int, t: int, spec: StrategySpec, trials: int, workers: int) -> None:
    # Each chunk of trials holds at most summary_peak_bytes at once, and at
    # most one chunk per worker runs at a time; a single chunk runs in this
    # process.  That bound holds only for a ball count that a load table
    # holds, so the count is checked first, as a run checks it.
    _ball_count(t)
    running = min(workers, -(-trials // _chunk_size(trials, workers)))
    needed = summary_peak_bytes(n, t, spec) * running + _TRIAL_RESULT_BYTES * trials
    _check_budget(needed, f"a campaign of {_shown(trials)} trials on {workers} workers")


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
    size = _chunk_size(trials, workers)
    chunks = [(n, t, spec, seeds[i : i + size]) for i in range(0, trials, size)]
    if workers == 1 or len(chunks) == 1:
        done = [_run_chunk(chunk) for chunk in chunks]
    else:
        # Imported here, so that importing thinlab does not pay for the
        # process pool machinery that single-worker runs never use.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            # The pool forks every worker up front, so only those that get a chunk.
            with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
                done = list(pool.map(_run_chunk, chunks))
        except BrokenProcessPool as exc:
            raise WorkerError(f"a worker process died during the campaign ({exc})") from exc
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
        raise ConfigurationError(
            f"successes must be at most {_shown(trials)}, got {_shown(successes)}"
        )
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
        raise ConfigurationError(f"tail estimation needs at least 100 trials, got {trials}")
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
    level appropriate to each n.  The whole grid is planned before the
    first campaign runs: every point's configuration, its target (which
    needs n >= 3) and its memory guard, so a bad point is refused before
    anything is drawn.  Each row's ratio is its campaign's
    ``normalized_ratio``.
    """
    grid = list(n_grid)
    if not grid:
        raise ConfigurationError("the bin-count grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("the bin-count grid must be strictly ascending")
    workers = _resolve_workers(workers)
    plan = []
    for n in grid:
        config = ExperimentConfig(
            n=n,
            strategy=strategy,
            trials=trials,
            base_seed=mix_seeds(base_seed, n),
            rho=rho,
        )
        target = target_maxload(n)
        _check_memory(n, config.ball_count, config.spec, trials, workers)
        plan.append((config, target))
    rows = []
    for config, target in plan:
        stats = run_trials(config, workers=workers)
        rows.append(
            ScaleRow(config.n, target, stats.median_maxload, stats.normalized_ratio, trials)
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
            "stages": [row._asdict() for row in self.per_stage],
        }


def _stage_plan(n: int, t: int, rho, epsilon: float) -> StageParams:
    """The stage decomposition of a t-ball run into n bins, checked.

    Returns :func:`stage_params` (n, rho, epsilon), and refuses a run
    too short to hold all s stages of w balls.  It needs only the
    request, so a caller can refuse before it draws anything.
    """
    params = stage_params(n, rho, epsilon)
    needed = params.s * params.w
    if t < needed:
        raise ConfigurationError(
            f"stage diagnostics need a trace of at least s*w = {params.s}*{_shown(params.w)} "
            f"= {_shown(needed)} balls, got {_shown(t)}"
        )
    return params


def _diagnose_peak_bytes(n: int, t: int, spec: StrategySpec) -> int:
    """Upper bound on the memory that a diagnosis, a run of t balls in n
    bins and then :func:`stage_diagnostics` of its trace, holds at once.

    The larger of ``engine.trace_peak_bytes``, for the run, and the stage
    pass beside the trace it reads: the trace's three int64 columns and
    three n-word tallies, and at each stage two n-word bincounts and the
    bool mask of the first; plus 16 KiB of Python objects.  The tests check
    it against ``tracemalloc``.
    """
    stages = 8 * (3 * t + 5 * n) + n + 16 * 1024
    return max(trace_peak_bytes(n, t, spec), stages)


def stage_diagnostics(trace: Trace, rho, epsilon: float) -> StageDiagnostics:
    """Evaluate the stage decomposition events on a recorded trace.

    The stages are those of :func:`_stage_plan`, which refuses a trace
    shorter than s*w balls.  rich_bins is computed from primary
    suggestions (accepted or not), exactly as the stage set is defined;
    it is NOT clipped to be monotone across stages, because the literal
    per-stage definition can admit a bin into stage k+1 that stage k
    missed.
    """
    rho = parse_rho(rho)
    params = _stage_plan(trace.n, trace.t, rho, epsilon)
    n = trace.n
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
                # An integer load is below (2 - epsilon) * ell exactly when
                # it is below s, that exact target's ceiling.
                load_below_target=max_load_now < params.s,
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
