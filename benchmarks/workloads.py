"""The benchmark's four workloads.

Each workload builds its inputs from the seed, runs one pass as a single
caller that waits for every call, and returns one digest per operation.
An operation that raises, or whose output fails a check made inside the
pass, yields a ``Failure`` instead of a digest.  The runner then compares
every digest with the workload's reference and, for recorded seeds, with
the digests recorded at the commit that introduced the benchmark.

Workloads (sizes are the design; see BENCHMARK.json for why each exists):

- campaign:  ``thinlab simulate -n 1e6 --rho 1 --strategy threshold:auto
  --trials 100 --workers 2`` through ``cli.main``.  Reference: the same
  command at 1 worker must give the same bytes.
- baselines: ``simulate`` with two-choices at n = 1e6 and with
  threshold:4,k=2 at n = 1e5, 4 trials each, 1 worker.
- trace:     ``thinlab diagnose -n 1e6`` and a full-trace round trip at
  n = 1e5 (to_json, trace_from_json, replay, all equal to final_state).
- oracle:    three exact enumerations, a one-choice cross-check of the
  enumeration against the DP, the 60 x 60 one-choice DP, run_suite("all").
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from fractions import Fraction

import thinlab.cli as cli
import thinlab.engine as engine
import thinlab.experiments as experiments
import thinlab.oracle as oracle
from thinlab import checks
from thinlab.rng import RngStream

from tracing import Tracer

UNTRACED = Tracer(enabled=False)


class Failure(str):
    """An operation's outcome when it raised or failed an output check."""


class OutputError(Exception):
    """An output check made inside a pass did not hold."""


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:20]


def attempt(outputs: dict, op: str, func) -> None:
    try:
        outputs[op] = func()
    except Exception as exc:  # the benchmark must count, not stop on, a failure
        outputs[op] = Failure(f"{type(exc).__name__}: {exc}")


def call_cli(argv: list[str], tracer: Tracer) -> str:
    """``thinlab <argv>`` in-process; returns stdout, raises on a nonzero exit."""
    buffer = io.StringIO()
    with tracer.span("cli.main", command=argv[0]) as attrs:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        attrs["bytes"] = len(buffer.getvalue().encode())
    if code != 0:
        raise OutputError(f"thinlab {' '.join(argv)} exited with {code}")
    return buffer.getvalue()


def simulate_argv(n: int, strategy: str, trials: int, workers: int, seed: int) -> list[str]:
    return [
        "simulate", "-n", str(n), "--rho", "1", "--strategy", strategy,
        "--trials", str(trials), "--workers", str(workers), "--seed", str(seed),
        "--no-meta",
    ]


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class Campaign:
    name = "campaign"
    workers = 2

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n = 2_000 if tiny else 1_000_000
        self.trials = 4 if tiny else 100
        self.balls = self.trials * self.n
        self.sizes = (self.n,)
        self.strategy = "threshold:auto"

    def argv(self, workers: int) -> list[str]:
        return simulate_argv(self.n, self.strategy, self.trials, workers, self.seed)

    def _simulate(self, workers: int, tracer: Tracer) -> str:
        text = call_cli(self.argv(workers), tracer)
        rows = csv_rows(text)
        if len(rows) != self.trials:
            raise OutputError(f"expected {self.trials} trial rows, got {len(rows)}")
        return digest(text)

    def run(self, tracer: Tracer) -> dict:
        outputs: dict = {}
        attempt(outputs, "simulate", lambda: self._simulate(self.workers, tracer))
        return outputs

    def reference(self, first: dict) -> dict:
        """The same campaign on 1 worker: output bytes never depend on workers."""
        outputs: dict = {}
        attempt(outputs, "simulate", lambda: self._simulate(1, UNTRACED))
        return outputs


class Baselines:
    name = "baselines"
    workers = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        trials = 2 if tiny else 4
        self.runs = (
            ("two-choices", 2_000 if tiny else 1_000_000, trials),
            ("threshold:4,k=2", 500 if tiny else 100_000, trials),
        )
        self.trials = sum(trials for _s, _n, trials in self.runs)
        self.balls = sum(n * trials for _s, n, trials in self.runs)
        self.sizes = tuple(n for _s, n, _t in self.runs)

    def _simulate(self, strategy: str, n: int, trials: int, tracer: Tracer) -> str:
        rows = csv_rows(call_cli(simulate_argv(n, strategy, trials, 1, self.seed), tracer))
        if len(rows) != trials:
            raise OutputError(f"expected {trials} trial rows, got {len(rows)}")
        pairs = [(int(row["maxload"]), int(row["rejections"])) for row in rows]
        for maxload, rejections in pairs:
            if not (1 <= maxload <= n and 0 <= rejections <= n):  # t = n balls
                raise OutputError(f"implausible trial maxload={maxload} rejections={rejections}")
        return digest(pairs)

    def run(self, tracer: Tracer) -> dict:
        outputs: dict = {}
        for strategy, n, trials in self.runs:
            attempt(outputs, strategy, lambda s=strategy, n=n, k=trials: self._simulate(s, n, k, tracer))
        return outputs

    def reference(self, first: dict) -> dict:
        return first


class TraceWorkload:
    name = "trace"
    workers = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n = 2_000 if tiny else 1_000_000
        self.round_trip_n = 200 if tiny else 100_000
        self.trials = 2
        self.balls = self.n + self.round_trip_n
        self.sizes = (self.n, self.round_trip_n)
        self.diagnose_argv = [
            "diagnose", "-n", str(self.n), "--rho", "1", "--epsilon", "0.5",
            "--seed", str(seed), "--no-meta",
        ]

    def _diagnose(self, tracer: Tracer) -> str:
        text = call_cli(self.diagnose_argv, tracer)
        payload = json.loads(text)
        if len(payload["stages"]) != payload["s"]:
            raise OutputError("diagnose reported a stage count different from s")
        return digest(text)

    def _round_trip(self, tracer: Tracer) -> str:
        n = self.round_trip_n
        with tracer.span("engine.run", n=n):
            trace = engine.run(n, n, "threshold:auto", self.seed)
        with tracer.span("engine.Trace.to_json"):
            text = trace.to_json()
        with tracer.span("engine.trace_from_json"):
            loaded = engine.trace_from_json(text)
        with tracer.span("engine.replay"):
            replayed = engine.replay(trace)
        if replayed != trace.final_state:
            raise OutputError("replay differs from final_state")
        if loaded.final_state != trace.final_state:
            raise OutputError("JSON round trip differs from final_state")
        return digest(text)

    def run(self, tracer: Tracer) -> dict:
        outputs: dict = {}
        attempt(outputs, "diagnose", lambda: self._diagnose(tracer))
        attempt(outputs, "round_trip", lambda: self._round_trip(tracer))
        return outputs

    def reference(self, first: dict) -> dict:
        return first


def pmf_digest(pmf) -> str:
    if sum(pmf.probs, Fraction(0)) != 1:
        raise OutputError("pmf does not sum to 1")
    return digest(pmf.support, [str(p) for p in pmf.probs])


class Oracle:
    """Exact computations take no seed; the seed only orders the calls."""

    name = "oracle"
    workers = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.enumerations = (
            ((2, 3, "threshold:1"), (2, 2, "threshold:1,k=2"), (2, 3, "two-choices"))
            if tiny
            else ((3, 4, "threshold:1"), (3, 3, "threshold:1,k=2"), (3, 4, "two-choices"))
        )
        self.shared = (2, 2) if tiny else (3, 3)
        self.dp = (8, 8) if tiny else (60, 60)
        self.sizes = tuple(n for n, _t, _s in self.enumerations)
        self.order = [f"enumerate {n},{t},{s}" for n, t, s in self.enumerations]
        self.order += ["one-choice cross-check", "one-choice dp", "run_suite"]
        random.Random(seed).shuffle(self.order)
        # A fixed unit of work per pass, whatever the oracle does inside:
        # "trials" are the pass's operations, "balls" the balls of the exact
        # instances it solves (the cross-check solves its instance twice).
        self.trials = len(self.order)
        self.balls = (sum(t for _n, t, _s in self.enumerations)
                      + 2 * self.shared[1] + self.dp[1])

    def _enumerate(self, n, t, strategy, tracer: Tracer) -> str:
        runs_before = tracer.counts.get("oracle.engine_runs", 0)
        with tracer.span("oracle.exact_maxload_distribution", instance=f"{n},{t},{strategy}") as attrs:
            pmf = oracle.exact_maxload_distribution(n, t, strategy)
        attrs["engine_runs"] = tracer.counts.get("oracle.engine_runs", 0) - runs_before
        return pmf_digest(pmf)

    def _one_choice(self, n, t, tracer: Tracer):
        with tracer.span("oracle.exact_one_choice_maxload", n=n, t=t):
            return oracle.exact_one_choice_maxload(n, t)

    def _cross_check(self, tracer: Tracer) -> str:
        n, t = self.shared
        enumerated = self._enumerate(n, t, "one-choice", tracer)
        if pmf_digest(self._one_choice(n, t, tracer)) != enumerated:
            raise OutputError("one-choice enumeration and DP disagree")
        return enumerated

    def _suite(self, tracer: Tracer) -> str:
        with tracer.span("checks.run_suite"):
            results = checks.run_suite("all")
        failed = [r.name for r in results if not r.passed]
        if failed:
            raise OutputError(f"check suite failures: {failed}")
        return digest(len(results))

    def run(self, tracer: Tracer) -> dict:
        steps = {f"enumerate {n},{t},{s}": (lambda n=n, t=t, s=s: self._enumerate(n, t, s, tracer))
                 for n, t, s in self.enumerations}
        steps["one-choice cross-check"] = lambda: self._cross_check(tracer)
        steps["one-choice dp"] = lambda: pmf_digest(self._one_choice(*self.dp, tracer))
        steps["run_suite"] = lambda: self._suite(tracer)
        outputs: dict = {}
        for op in self.order:
            attempt(outputs, op, steps[op])
        return outputs

    def reference(self, first: dict) -> dict:
        return first


WORKLOADS = {w.name: w for w in (Campaign, Baselines, TraceWorkload, Oracle)}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Spans around the library calls that the CLI and ``run_trials`` make.

    The names are swapped on the modules that look them up, so thinlab's
    source is untouched; engine runs made by the oracle are counted, not
    spanned, because there are tens of thousands of them.  Worker processes
    forked inside the block inherit the swaps, but their spans stay in the
    workers and are lost.
    """

    def note_trials(attrs, stats):
        attrs["label"] = stats.strategy_label
        attrs["rejections"] = sum(stats.per_trial_rejections)

    def traced_summary(n, t, spec, seed):
        with tracer.span("engine.run_summary", label=spec.label, n=n, t=t, seed=seed) as attrs:
            loads, rejections = summary(n, t, spec, seed)
            attrs["rejections"] = rejections
        return loads, rejections

    def traced_block(stream, n, count):
        with tracer.span("rng.bounded_block", n=n, count=count):
            return bounded_block(stream, n, count)

    def counted_run(n, t, *args, **kwargs):
        tracer.counts["oracle.engine_runs"] = tracer.counts.get("oracle.engine_runs", 0) + 1
        return run_with_streams(n, t, *args, **kwargs)

    summary = experiments.run_summary
    bounded_block = RngStream.bounded_block
    patches = [
        (cli, "run_trials", tracer.wrap("experiments.run_trials", cli.run_trials, note_trials)),
        (cli, "run", tracer.wrap("engine.run", cli.run,
                                 lambda attrs, trace: attrs.update(n=trace.n))),
        (cli, "stage_diagnostics",
         tracer.wrap("experiments.stage_diagnostics", cli.stage_diagnostics)),
        (experiments, "run_summary", traced_summary),
        # A handful of block draws per engine call; per-ball draws go through
        # next_bounded and are not spanned.
        (RngStream, "bounded_block", traced_block),
    ]
    # The oracle may stop running the engine; then its runs count as 0.
    run_with_streams = getattr(oracle, "run_with_streams", None)
    if run_with_streams is not None:
        patches.append((oracle, "run_with_streams", counted_run))
    saved = [(module, name, getattr(module, name)) for module, name, _f in patches]
    try:
        for module, name, func in patches:
            setattr(module, name, func)
        yield
    finally:
        for module, name, func in saved:
            setattr(module, name, func)
