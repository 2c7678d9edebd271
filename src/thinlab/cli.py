"""Command-line entry point.

Subcommands: simulate, scale, bounds, oracle, diagnose, check.  Every
subcommand accepts --format {csv,json}, --out PATH, --no-meta, and
--config FILE (a JSON object of parameter defaults; explicit flags win).

Exit codes: 0 success, 1 usage or parameter error, 2 check failure,
3 I/O failure.

Output is deterministic for fixed arguments and seed: the only
non-reproducible content is a timestamp confined to a single metadata
header entry, suppressed by --no-meta.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__, bounds
from .checks import SUITE_NAMES, oracle_suite, run_suite
from .engine import run
from .errors import ConfigurationError, ThinlabError, _as_int
from .experiments import (
    ExperimentConfig,
    parse_rho,
    rejection_stats,
    run_trials,
    scaling_study,
    stage_diagnostics,
)
from .oracle import exact_maxload_distribution
from .strategies import parse_strategy

_FORMATS = ("csv", "json")
_REQUIRED = object()


@dataclass(frozen=True)
class CliConfig:
    """A validated invocation: subcommand plus merged parameters."""

    subcommand: str
    params: dict


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


def _conv_float(value, flag: str) -> float:
    # Only parsed: the evaluator that takes the value checks its range.
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{flag} must be a number, got {value!r}") from None


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
# Parameter tables: (name, converter, default); _REQUIRED means mandatory.

_COMMON = (
    ("format", _conv_format, None),
    ("out", _conv_str, None),
    ("no_meta", _conv_bool, False),
)

# The bound parameters, in the order of their CSV columns.
_BOUND_PARAMS = (
    ("n", _conv_list(_conv_int), None),
    ("rho", _conv_list(_conv_rho), None),
    ("eta", _conv_list(_conv_float), None),
    ("theta", _conv_list(_conv_float), None),
    ("epsilon", _conv_list(_conv_float), None),
    ("a", _conv_list(_conv_natural), None),
    ("set_size", _conv_list(_conv_float), None),
)

class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ConfigurationError."""

    def error(self, message):
        raise ConfigurationError(message)


def _flag(name: str) -> str:
    if len(name) == 1:
        return "-" + name
    return "--" + name.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="thinlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"thinlab {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    for name, entry in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=entry.help, description=entry.help)
        for param, converter, _default in entry.params + _COMMON:
            if converter is _conv_bool:
                sub.add_argument(_flag(param), action="store_true", default=None)
            else:
                sub.add_argument(_flag(param), default=None)
        sub.add_argument("--config", default=None, metavar="FILE")
    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path}: expected a JSON object")
    return data


def _merge_params(subcommand: str, namespace: argparse.Namespace, file_config: dict) -> dict:
    table = _SUBCOMMANDS[subcommand].params + _COMMON
    known = {param for param, _c, _d in table}
    for key in file_config:
        normalized = key.replace("-", "_")
        if normalized not in known:
            raise ConfigurationError(
                f"config file key {key!r} is not a parameter of {subcommand}"
            )

    merged = {}
    from_flags = set()
    for param, converter, default in table:
        flag_value = getattr(namespace, param)
        file_value = file_config.get(param, file_config.get(param.replace("_", "-")))
        if flag_value is not None:
            merged[param] = converter(flag_value, _flag(param))
            from_flags.add(param)
        elif file_value is not None:
            merged[param] = converter(file_value, _flag(param))
        elif default is _REQUIRED:
            raise ConfigurationError(f"{subcommand} requires {_flag(param)}")
        else:
            merged[param] = default

    if "rho" in merged and "t" in merged:
        merged.update(_resolve_rho_t(merged, from_flags, subcommand))
    return merged


def _resolve_rho_t(merged: dict, from_flags: set, subcommand: str) -> dict:
    rho, t = merged.get("rho"), merged.get("t")
    if rho is not None and t is not None:
        # Flags beat config-file values; simultaneous explicit flags conflict.
        if "rho" in from_flags and "t" in from_flags:
            raise ConfigurationError("--rho and -t are mutually exclusive")
        if "rho" in from_flags:
            t = None
        elif "t" in from_flags:
            rho = None
        else:
            raise ConfigurationError("--rho and -t are mutually exclusive (config file)")
    if rho is None and t is None:
        rho = Fraction(1)
    return {"rho": rho, "t": t}


def parse_args(argv=None) -> CliConfig:
    """Parse and validate argv into a CliConfig (flags beat config file)."""
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.subcommand is None:
        raise ConfigurationError("missing subcommand (see thinlab --help)")
    file_config = _load_config_file(namespace.config) if namespace.config else {}
    params = _merge_params(namespace.subcommand, namespace, file_config)
    return CliConfig(namespace.subcommand, params)


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


def _emit(params: dict, subcommand: str, header: list[str], rows: list[tuple], payload: dict) -> None:
    out_format = params["format"] or _SUBCOMMANDS[subcommand].default_format
    meta = None if params["no_meta"] else _meta_text(subcommand)
    if out_format == "csv":
        lines = [f"# {meta}"] if meta else []
        lines.append(",".join(header))
        lines.extend(",".join(_cell(value) for value in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        body = dict(payload)
        if meta:
            body = {"meta": meta, **body}
        text = json.dumps(_json_ready(body), indent=2) + "\n"
    _write_text(text, params["out"])


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _run_simulate(params: dict) -> int:
    config = ExperimentConfig(
        n=params["n"],
        strategy=params["strategy"],
        trials=params["trials"],
        base_seed=params["seed"],
        rho=params["rho"],
        t=params["t"],
    )
    stats = run_trials(config, workers=params["workers"])
    header = ["trial", "seed", "maxload", "rejections"]
    rows = [
        (i, stats.per_trial_seeds[i], stats.per_trial_maxload[i], stats.per_trial_rejections[i])
        for i in range(stats.trials)
    ]
    payload = stats.as_dict()
    payload["per_trial_seeds"] = list(stats.per_trial_seeds)
    level = params["level"]
    if level is not None:
        payload["tail"] = stats.tail(level)._asdict()
    _emit(params, "simulate", header, rows, payload)
    return 0


def _run_scale(params: dict) -> int:
    table = scaling_study(
        params["grid"],
        rho=params["rho"],
        strategy=params["strategy"],
        trials=params["trials"],
        base_seed=params["seed"],
        workers=params["workers"],
    )
    header = ["n", "target", "median_maxload", "ratio", "trials"]
    rows = [(r.n, r.target, r.median_maxload, r.ratio, r.trials) for r in table]
    payload = {
        "strategy": params["strategy"],
        "rho": params["rho"],
        "base_seed": params["seed"],
        "rows": [r._asdict() for r in table],
    }
    _emit(params, "scale", header, rows, payload)
    return 0


def _run_bounds(params: dict) -> int:
    provided = [param for param, _c, _d in _BOUND_PARAMS if params[param] is not None]
    if not provided:
        raise ConfigurationError(
            f"bounds --name {params['name']} needs its parameter flags"
        )
    keywords = ["s_size" if key == "set_size" else key for key in provided]
    points = list(itertools.product(*(params[key] for key in provided)))
    reports = [
        bounds.evaluate(params["name"], **dict(zip(keywords, point))) for point in points
    ]

    grid_mode = len(reports) > 1
    if params["format"] is None:
        params = dict(params)
        params["format"] = "csv" if grid_mode else "json"

    header = ["name", *provided, "value", "clamped"]
    rows = [
        (report.name, *point, report.value, report.clamped)
        for point, report in zip(points, reports)
    ]
    if grid_mode:
        payload = {"reports": [report.as_dict() for report in reports]}
    else:
        payload = reports[0].as_dict()
    _emit(params, "bounds", header, rows, payload)
    return 0


def _run_oracle(params: dict) -> int:
    if params["check"]:
        rows = oracle_suite(params["n"], params["t"])
        return _emit_checks(params, "oracle", rows)
    if params["n"] is None or params["t"] is None:
        raise ConfigurationError("oracle needs both -n and -t (or --check)")
    pmf = exact_maxload_distribution(params["n"], params["t"], params["strategy"])
    header = ["max_load", "probability", "exact"]
    rows = [
        (level, float(prob), str(prob))
        for level, prob in zip(pmf.support, pmf.probs)
    ]
    payload = {
        "n": params["n"],
        "t": params["t"],
        "strategy": params["strategy"],
        "pmf": [dict(zip(header, row)) for row in rows],
    }
    _emit(params, "oracle", header, rows, payload)
    return 0


def _run_diagnose(params: dict) -> int:
    n = params["n"]
    rho, t = params["rho"], params["t"]
    if t is not None:
        rho = Fraction(t, n)
    else:
        t = int(rho * n)
    spec = parse_strategy(params["strategy"], n=n)
    bounds.stage_params(n, rho, params["epsilon"])  # refuses bad parameters before run draws
    trace = run(n, t, spec, params["seed"])
    diagnostics = stage_diagnostics(trace, rho, params["epsilon"])
    rejections = rejection_stats(trace)
    header = ["k", "rich_bins", "count_below_zeta", "load_below_target"]
    rows = [
        (row.k, row.rich_bins, row.count_below_zeta, row.load_below_target)
        for row in diagnostics.per_stage
    ]
    payload = diagnostics.as_dict()
    payload["strategy"] = trace.strategy.label
    payload["seed"] = params["seed"]
    payload["rejections"] = {
        "total": rejections.total_rejections,
        "budget_ratio": rejections.budget_ratio,
    }
    _emit(params, "diagnose", header, rows, payload)
    return 0


def _run_check(params: dict) -> int:
    return _emit_checks(params, "check", run_suite(params["suite"]))


def _emit_checks(params: dict, subcommand: str, results) -> int:
    header = ["check", "passed", "detail"]
    rows = [(r.name, r.passed, r.detail) for r in results]
    failed = sum(1 for r in results if not r.passed)
    payload = {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "total": len(results),
        "failed": failed,
    }
    _emit(params, subcommand, header, rows, payload)
    return 2 if failed else 0


class _Subcommand(NamedTuple):
    """A subcommand's handler, default format, help text and parameters."""

    handler: Callable[[dict], int]
    default_format: str | None
    help: str
    params: tuple  # each (name, converter, default); every subcommand adds _COMMON


_SUBCOMMANDS: dict[str, _Subcommand] = {
    "simulate": _Subcommand(
        _run_simulate, "csv", "run one Monte Carlo campaign and emit per-trial results", (
            ("n", _conv_int, _REQUIRED),
            ("rho", _conv_rho, None),
            ("t", _conv_natural, None),
            ("strategy", _conv_str, "threshold:auto"),
            ("trials", _conv_int, 100),
            ("seed", _conv_seed, 0),
            ("workers", _conv_int, None),
            ("level", _conv_natural, None),
        )),
    "scale": _Subcommand(
        _run_scale, "csv", "run campaigns across a bin-count grid and compare to the target", (
            ("grid", _conv_list(_conv_int), _REQUIRED),
            ("rho", _conv_rho, Fraction(1)),
            ("strategy", _conv_str, "threshold:auto"),
            ("trials", _conv_int, 50),
            ("seed", _conv_seed, 0),
            ("workers", _conv_int, None),
        )),
    # bounds: json for a single point, csv for a grid (resolved at run time)
    "bounds": _Subcommand(
        _run_bounds, None, "evaluate a named closed-form bound (lists of values form a grid)",
        (("name", _conv_bound_name, _REQUIRED),) + _BOUND_PARAMS),
    "oracle": _Subcommand(
        _run_oracle, "json", "exact small-instance distributions, or --check for the battery", (
            ("n", _conv_int, None),
            ("t", _conv_natural, None),
            ("strategy", _conv_str, "one-choice"),
            ("check", _conv_bool, False),
        )),
    "diagnose": _Subcommand(
        _run_diagnose, "json", "stage decomposition and rejection diagnostics of one trace", (
            ("n", _conv_int, _REQUIRED),
            ("rho", _conv_rho, None),
            ("t", _conv_natural, None),
            ("strategy", _conv_str, "threshold:auto"),
            ("seed", _conv_seed, 0),
            ("epsilon", _conv_float, 0.5),
        )),
    "check": _Subcommand(
        _run_check, "csv", "run invariant suites and exit nonzero on any violation",
        (("suite", _conv_suite, "all"),)),
}


def execute(config: CliConfig) -> int:
    """Run a validated CliConfig; returns the process exit code."""
    return _SUBCOMMANDS[config.subcommand].handler(config.params)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
        return execute(config)
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        return code if isinstance(code, int) else 0
    except ThinlabError as exc:
        print(f"thinlab: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"thinlab: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
