"""Exception types shared across thinlab modules."""


class ThinlabError(Exception):
    """Base class for all thinlab errors."""


class ConfigurationError(ThinlabError, ValueError):
    """Invalid process, strategy, or experiment configuration."""


class DomainError(ThinlabError, ValueError):
    """Parameter outside the domain of a closed-form evaluator."""


class StateSpaceLimitError(ThinlabError, ValueError):
    """Exact computation refused because the state space is too large."""


class ResourceLimitError(ThinlabError, RuntimeError):
    """Experiment refused because it would exceed the memory budget."""


class WorkerError(ThinlabError, RuntimeError):
    """A worker process of a campaign died before returning its trials."""
