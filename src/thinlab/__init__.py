"""thinlab: a simulation and verification laboratory for two-thinning
balanced allocation.

Balls arrive one at a time; each ball draws a uniformly random primary
bin, which a strategy may reject (observing only primary-suggestion
counts), sending the ball to an independent uniform secondary bin.  The
package provides an exact replayable engine for this process, the
classical one-choice and two-choices baselines, closed-form bound
evaluators, exact small-instance oracles, Monte Carlo campaign drivers,
and a command-line interface.
"""

__version__ = "0.1.0"

from .bounds import (
    BOUND_NAMES,
    BoundReport,
    evaluate,
    lemma22_bound,
    lemma23_bound,
    lower_ell,
    prop41_bound,
    prop51_bound,
    rejection_budget,
    stage_params,
    target_maxload,
    threshold_L,
)
from .engine import (
    AllocationRecord,
    ProcessState,
    Trace,
    level_set_count,
    max_load,
    new_process,
    replay,
    run,
    run_summary,
    run_summary_batch,
    run_with_streams,
    step,
    trace_from_json,
)
from .errors import (
    ConfigurationError,
    DomainError,
    ResourceLimitError,
    StateSpaceLimitError,
    ThinlabError,
    WorkerError,
)
from .experiments import (
    ExperimentConfig,
    ScaleRow,
    StageDiagnostics,
    SummaryStats,
    TailEstimate,
    parse_rho,
    rejection_stats,
    run_trials,
    scaling_study,
    stage_diagnostics,
    tail_estimate,
    wilson_interval,
)
from .oracle import (
    Pmf,
    exact_maxload_distribution,
    exact_one_choice_maxload,
    pmf_from_counts,
    poisson_tail,
    poissonization_check,
    tv_distance,
)
from .rng import FixedStream, RngStream, fmix64, mix_seeds
from .strategies import (
    StrategySpec,
    decide,
    default_threshold_spec,
    parse_strategy,
    two_choices_decide,
)

__all__ = [
    "__version__",
    # engine
    "AllocationRecord",
    "ProcessState",
    "Trace",
    "new_process",
    "step",
    "run",
    "run_summary",
    "run_summary_batch",
    "run_with_streams",
    "replay",
    "trace_from_json",
    "max_load",
    "level_set_count",
    # strategies
    "StrategySpec",
    "decide",
    "two_choices_decide",
    "default_threshold_spec",
    "parse_strategy",
    # bounds
    "BOUND_NAMES",
    "BoundReport",
    "evaluate",
    "threshold_L",
    "lower_ell",
    "target_maxload",
    "lemma22_bound",
    "lemma23_bound",
    "prop41_bound",
    "prop51_bound",
    "stage_params",
    "rejection_budget",
    # oracle
    "Pmf",
    "exact_maxload_distribution",
    "exact_one_choice_maxload",
    "pmf_from_counts",
    "poisson_tail",
    "poissonization_check",
    "tv_distance",
    # experiments
    "ExperimentConfig",
    "SummaryStats",
    "TailEstimate",
    "ScaleRow",
    "StageDiagnostics",
    "parse_rho",
    "run_trials",
    "tail_estimate",
    "scaling_study",
    "stage_diagnostics",
    "rejection_stats",
    "wilson_interval",
    # rng
    "RngStream",
    "FixedStream",
    "fmix64",
    "mix_seeds",
    # errors
    "ThinlabError",
    "ConfigurationError",
    "DomainError",
    "StateSpaceLimitError",
    "ResourceLimitError",
    "WorkerError",
]
