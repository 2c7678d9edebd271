"""Exception types shared across thinlab modules, and the one integer rule."""

import operator


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


def _as_int(value, what: str, minimum: int | None = None, error=ConfigurationError) -> int:
    """``value`` as an int, or ``error`` naming ``what``.

    The integer rule of every public entry.  It follows ``operator.index``:
    Python and numpy integers pass and come back as ``int``, while bools,
    floats, strings and other objects are refused, as is a value below
    ``minimum``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        result = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and result < minimum:
        raise error(f"{what} must be at least {minimum}, got {result}")
    return result
