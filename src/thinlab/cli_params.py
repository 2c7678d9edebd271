"""Parameter converters, parameter tables and output cell helpers of the
command-line interface.

The converters turn a flag's text or a config-file value into a checked
parameter, or raise ConfigurationError naming the flag; ``_COMMON`` and
``_BOUND_PARAMS`` are the parameter tables that :mod:`thinlab.cli` shares
between subcommands; ``_round6``, ``_json_ready``, ``_cell`` and
``_meta_text`` format what its subcommands emit.  Only :mod:`thinlab.cli`
imports this module; the handlers, the subcommand table and the parser
stay there.
"""

from __future__ import annotations

from datetime import datetime, timezone
from fractions import Fraction

from . import __version__, bounds
from .checks import SUITE_NAMES
from .errors import ConfigurationError, _as_fraction, _as_int
from .experiments import parse_rho

_FORMATS = ("csv", "json")

# ---------------------------------------------------------------------------
# Value converters (shared by flag parsing and config-file merging)


def _conv_int(value, flag: str, minimum: int = 1) -> int:
    # Flag text is parsed; a config-file value follows the integer rule.
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            raise ConfigurationError(f"{flag} must be an integer, got {value!r}") from None
    return _as_int(value, flag, minimum)


def _conv_natural(value, flag: str) -> int:
    return _conv_int(value, flag, 0)


def _conv_seed(value, flag: str) -> int:
    result = _conv_natural(value, flag)
    if result >= 2**64:
        raise ConfigurationError(f"{flag} must fit in 64 bits, got {result}")
    return result


def _conv_real(value, flag: str) -> float | Fraction:
    # Only parsed: the evaluator that takes the value checks its range.  What
    # float() reads stays a float; other text ("1/2") follows the rule of --rho.
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        try:
            exact = _as_fraction(value, flag)
            float(exact)  # the evaluators do float arithmetic on it
        except (ConfigurationError, OverflowError):
            raise ConfigurationError(f"{flag} must be a number, got {value!r}") from None
        return exact


def _conv_rho(value, flag: str) -> Fraction:
    try:
        return parse_rho(value)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from None


def _conv_bool(value, flag: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigurationError(f"{flag} must be true or false, got {value!r}")


def _conv_choice(choices: tuple[str, ...]):
    def convert(value, flag: str) -> str:
        if value in choices:
            return value
        listed = ", ".join(choices)
        raise ConfigurationError(f"{flag} must be one of {listed}; got {value!r}")

    return convert


def _conv_str(value, flag: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ConfigurationError(f"{flag} must be a non-empty string, got {value!r}")
    return value.strip()


def _split_list(value) -> list:
    if isinstance(value, str):
        parts = [piece.strip() for piece in value.split(",")]
        if any(not piece for piece in parts):
            raise ConfigurationError(f"empty element in list {value!r}")
        return parts
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _conv_list(element_converter):
    def convert(value, flag: str) -> list:
        return [element_converter(piece, flag) for piece in _split_list(value)]

    return convert


_conv_format = _conv_choice(_FORMATS)
_conv_suite = _conv_choice(SUITE_NAMES)
_conv_bound_name = _conv_choice(bounds.BOUND_NAMES)

# ---------------------------------------------------------------------------
# Parameter tables shared by subcommands: (name, converter, default).

_COMMON = (
    ("format", _conv_format, None),
    ("out", _conv_str, None),
    ("no_meta", _conv_bool, False),
)

# The bound parameters, in the order of their CSV columns.
_BOUND_PARAMS = (
    ("n", _conv_list(_conv_int), None),
    ("rho", _conv_list(_conv_rho), None),
    ("eta", _conv_list(_conv_real), None),
    ("theta", _conv_list(_conv_real), None),
    ("epsilon", _conv_list(_conv_real), None),
    ("a", _conv_list(_conv_natural), None),
    ("set_size", _conv_list(_conv_real), None),
)


# ---------------------------------------------------------------------------
# Emission helpers


def _round6(value):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(format(value, ".6g"))


def _json_ready(value):
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    if isinstance(value, Fraction):
        return str(value)
    return _round6(value)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    text = str(value)
    if any(risky in text for risky in (",", '"', "\n")):
        escaped = text.replace('"', '""')
        return f'"{escaped}"'
    return text


def _meta_text(subcommand: str) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return f"thinlab {__version__} {subcommand} {stamp}"

