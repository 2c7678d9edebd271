"""Exception types shared across thinlab modules, the one integer rule, the
one exact-rational rule, the one memory-budget rule and the one way a
message shows a number."""

import numbers
import operator
from fractions import Fraction


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


def _shown(value, text=str) -> str:
    """``value`` as a message shows it, ``text(value)``, except that an int
    too long for Python to print (past ``sys.get_int_max_str_digits()``,
    4300 digits by default) is named by its bit length, so that the message
    can still be raised."""
    try:
        return text(value)
    except ValueError:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"


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
        raise error(f"{what} must be at least {minimum}, got {_shown(result)}")
    return result


def _as_fraction(value, what: str, error=ConfigurationError) -> Fraction:
    """``value`` as an exact Fraction, or ``error`` naming ``what``.

    The exact-rational rule of every real input: integers, Rationals and
    strings ("1/2", "0.5") convert exactly, other reals through their
    shortest decimal (0.1 is 1/10).  Bools, non-numbers and non-finite
    values are refused.
    """
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
        raise error(f"{what} must be numeric, got {value!r}")
    try:
        if isinstance(value, numbers.Rational):
            # A numpy integer's numerator is a numpy integer; Fraction would keep it.
            return Fraction(operator.index(value.numerator), operator.index(value.denominator))
        return Fraction(str(value).strip())
    except (ValueError, ZeroDivisionError):
        raise error(f"unparsable {what} {value!r}") from None


# Most memory one run, trace or campaign may hold at once.
MEMORY_BUDGET_BYTES = 2 * 1024**3


def _check_budget(needed: int, what: str) -> None:
    """Refuse ``what``, which needs about ``needed`` bytes at once, with
    ResourceLimitError if that exceeds ``MEMORY_BUDGET_BYTES`` as it is now."""
    if needed > MEMORY_BUDGET_BYTES:
        raise ResourceLimitError(
            f"{what} needs about {_shown(needed)} bytes, "
            f"beyond the budget of {MEMORY_BUDGET_BYTES}"
        )
