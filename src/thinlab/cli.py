"""Command-line entry point: the subcommand handlers, the subcommand table,
the parser and the merge of flags with a config file.

Subcommands: simulate, scale, bounds, oracle, diagnose, check.  Every
subcommand accepts --format {csv,json}, --out PATH, --no-meta, and
--config FILE (a JSON object of parameter defaults; explicit flags win).
The parameter converters, the shared parameter tables and the output cell
helpers are in :mod:`thinlab.cli_params`; ``_RUN``, the run parameters of
simulate and diagnose, is here.  A subcommand whose rows are a library
row type (``ScaleRow``, ``StageRow``, ``CheckResult``) writes them as they
are, under the type's fields.

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
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from . import __version__, bounds
from .checks import oracle_suite, run_suite
from .cli_params import (
    _BOUND_PARAMS,
    _COMMON,
    _cell,
    _conv_bool,
    _conv_bound_name,
    _conv_int,
    _conv_list,
    _conv_natural,
    _conv_real,
    _conv_rho,
    _conv_seed,
    _conv_str,
    _conv_suite,
    _json_ready,
    _meta_text,
)
from .engine import run
from .errors import ConfigurationError, ThinlabError
from .experiments import (
    ExperimentConfig,
    ScaleRow,
    StageRow,
    _check_tail_request,
    _stage_plan,
    rejection_stats,
    run_trials,
    scaling_study,
    stage_diagnostics,
)
from .oracle import exact_maxload_distribution

_REQUIRED = object()


@dataclass(frozen=True)
class CliConfig:
    """A validated invocation: subcommand plus merged parameters."""

    subcommand: str
    params: dict


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
        merged.update(_resolve_rho_t(merged, from_flags))
    return merged


def _resolve_rho_t(merged: dict, from_flags: set) -> dict:
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
# Emission


def _emit(params: dict, subcommand: str, header: Sequence[str], rows: Iterable[tuple],
          payload: dict) -> None:
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


def _experiment(params: dict) -> ExperimentConfig:
    """The campaign of a simulate request, or the one run of a diagnose."""
    return ExperimentConfig(
        n=params["n"],
        strategy=params["strategy"],
        trials=params.get("trials", 1),
        base_seed=params["seed"],
        rho=params["rho"],
        t=params["t"],
    )


def _run_simulate(params: dict) -> int:
    config = _experiment(params)
    level = params["level"]
    if level is not None:
        _check_tail_request(level, config.trials)  # before the campaign runs
    stats = run_trials(config, workers=params["workers"])
    rows = zip(range(stats.trials), stats.per_trial_seeds, stats.per_trial_maxload,
               stats.per_trial_rejections)
    payload = stats.as_dict()
    if level is not None:
        payload["tail"] = stats.tail(level)._asdict()
    _emit(params, "simulate", ["trial", "seed", "maxload", "rejections"], rows, payload)
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
    payload = {
        "strategy": params["strategy"],
        "rho": params["rho"],
        "base_seed": params["seed"],
        "rows": [r._asdict() for r in table],
    }
    _emit(params, "scale", ScaleRow._fields, table, payload)
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
    config = _experiment(params)
    n, t = config.n, config.ball_count
    rho = config.rho or Fraction(t, n)  # rho is positive when given
    _stage_plan(n, t, rho, params["epsilon"])  # refuses a bad request before run draws
    trace = run(n, t, config.spec, params["seed"])
    diagnostics = stage_diagnostics(trace, rho, params["epsilon"])
    rejections = rejection_stats(trace)
    payload = diagnostics.as_dict()
    payload["strategy"] = trace.strategy.label
    payload["seed"] = params["seed"]
    payload["rejections"] = {
        "total": rejections.total_rejections,
        "budget_ratio": rejections.budget_ratio,
    }
    _emit(params, "diagnose", StageRow._fields, diagnostics.per_stage, payload)
    return 0


def _run_check(params: dict) -> int:
    return _emit_checks(params, "check", run_suite(params["suite"]))


def _emit_checks(params: dict, subcommand: str, results) -> int:
    failed = sum(1 for r in results if not r.passed)
    payload = {"checks": [r._asdict() for r in results], "total": len(results), "failed": failed}
    _emit(params, subcommand, ["check", "passed", "detail"], results, payload)
    return 2 if failed else 0


class _Subcommand(NamedTuple):
    """A subcommand's handler, default format, help text and parameters."""

    handler: Callable[[dict], int]
    default_format: str | None
    help: str
    params: tuple  # each (name, converter, default); every subcommand adds _COMMON


# The run parameters that simulate and diagnose share; -t and --rho are
# resolved by _resolve_rho_t.
_RUN = (
    ("n", _conv_int, _REQUIRED),
    ("rho", _conv_rho, None),
    ("t", _conv_natural, None),
    ("strategy", _conv_str, "threshold:auto"),
)

_SUBCOMMANDS: dict[str, _Subcommand] = {
    "simulate": _Subcommand(
        _run_simulate, "csv", "run one Monte Carlo campaign and emit per-trial results", _RUN + (
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
        _run_diagnose, "json", "stage decomposition and rejection diagnostics of one trace",
        _RUN + (
            ("seed", _conv_seed, 0),
            ("epsilon", _conv_real, 0.5),
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
