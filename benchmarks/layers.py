"""Per-layer metrics of a traced run.

Every traced run measures every layer: it runs a traced pass of each of the
four workloads (spans from ``workloads.instrumented``) plus direct probes of
the random-stream layer and of peak memory.  ``layer_map.json`` names the
end-to-end metric and workload each per-layer metric should move.

The campaign's trials run in worker processes, whose spans are lost, so its
``run_summary`` times come from probe trials run in this process; the
experiments layer's dispatch time and parallel efficiency are estimates that
combine those probes with the ``run_trials`` span.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import defaultdict

from thinlab import engine
from thinlab.rng import RngStream, mix_seeds
from thinlab.strategies import parse_strategy

from tracing import Tracer
from workloads import instrumented

PROBE_TRIALS = 5  # in-process campaign trials timed per repetition
MB = 1024 * 1024
# Metric-name suffix of each strategy the campaign and baselines run.
STRATEGY_KEYS = {"threshold:auto": "threshold-auto", "two-choices": "two-choices",
                 "threshold:4,k=2": "threshold-k2"}


def replay_draws(tracer: Tracer, key: str, n: int, primary: int, secondary: int, seed: int):
    """A trial's primary and secondary ``bounded_block`` calls on fresh streams."""
    streams = RngStream(mix_seeds(seed, 0)), RngStream(mix_seeds(seed, 1))
    with tracer.span("rng.replay", key=key, stream="primary"):
        streams[0].bounded_block(n, primary)
    with tracer.span("rng.replay", key=key, stream="secondary"):
        streams[1].bounded_block(n, secondary)
    return sum(s.draws for s in streams), sum(s.counter for s in streams)


def traced_peak(func) -> float:
    """Peak bytes allocated while ``func`` runs, as tracemalloc sees them (MB)."""
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def probe(tracer: Tracer, seed: int, workloads: dict) -> dict:
    """Probes that a pass cannot expose from outside; returns exact facts."""
    campaign, baselines, trace = (workloads[k] for k in ("campaign", "baselines", "trace"))
    n = campaign.n
    spec = parse_strategy(campaign.strategy, n=n)
    facts = {}
    for i in range(PROBE_TRIALS):
        trial_seed = mix_seeds(seed, i)  # the campaign's trial i
        tracer.new_op()
        with tracer.span("probe.trial", key="threshold-auto"):
            with instrumented(tracer), tracer.span(  # spans its block draws too
                    "engine.run_summary", label=spec.label, n=n, t=n, seed=trial_seed):
                _loads, rejections = engine.run_summary(n, n, spec, trial_seed)
            draws, words = replay_draws(tracer, "threshold-auto", n, n, rejections, trial_seed)
        if i == 0:
            facts["rng.draws"], facts["rng.words"] = draws, words
    # First trial of each baseline: two-choices draws one pool candidate per
    # ball, the threshold rule one per rejection.
    first_trial = mix_seeds(seed, 0)
    for strategy, bn, _trials in baselines.runs:
        key = STRATEGY_KEYS[strategy]
        tracer.new_op()
        with tracer.span("probe.trial", key=key):
            if strategy == "two-choices":
                secondary = bn
            else:
                label = parse_strategy(strategy, n=bn).label
                secondary = next(
                    a["rejections"] for a in tracer.attrs("engine.run_summary")
                    if a["label"] == label and a["seed"] == first_trial
                )
            replay_draws(tracer, key, bn, bn, secondary, first_trial)
    facts["engine.summary_peak_mb"] = traced_peak(
        lambda: engine.run_summary(n, n, spec, first_trial))
    facts["engine.run_peak_mb"] = traced_peak(
        lambda: engine.run(trace.n, trace.n, "threshold:auto", seed))
    return facts


def _median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


class _Spans:
    """Span lookups scoped to the passes of one workload."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.child_time = tracer.child_times()
        self.ops = defaultdict(set)
        for span in tracer.spans:
            if span["name"] == "pass":
                self.ops[span["attrs"]["workload"]].add(span["op"])

    def find(self, name: str, workload: str | None = None, **attrs) -> list[tuple[int, dict]]:
        return [
            (i, s) for i, s in enumerate(self.tracer.spans)
            if s["name"] == name
            and (workload is None or s["op"] in self.ops[workload])
            and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def durations(self, name: str, workload: str | None = None, **attrs) -> list[float]:
        return [s["end"] - s["start"] for _i, s in self.find(name, workload, **attrs)]

    def self_durations(self, name: str, workload: str | None = None, **attrs) -> list[float]:
        return [s["end"] - s["start"] - self.child_time[i]
                for i, s in self.find(name, workload, **attrs)]

    def per_op_sum(self, name: str, workload: str | None = None, **attrs) -> list[float]:
        totals = defaultdict(float)
        for _i, s in self.find(name, workload, **attrs):
            totals[s["op"]] += s["end"] - s["start"]
        return list(totals.values())


def per_layer_metrics(tracer: Tracer, facts: dict, workloads: dict,
                      overhead_s: float) -> dict[str, float]:
    campaign, baselines, trace = (workloads[k] for k in ("campaign", "baselines", "trace"))
    spans = _Spans(tracer)
    m: dict[str, float] = {}
    labels = {"threshold-auto": parse_strategy(campaign.strategy, n=campaign.n).label}
    for strategy, bn, _trials in baselines.runs:
        labels[STRATEGY_KEYS[strategy]] = parse_strategy(strategy, n=bn).label

    draw_s = {key: _median(spans.per_op_sum("rng.replay", key=key)) for key in labels}
    summary_s = {
        "threshold-auto": _median(spans.durations(
            "engine.run_summary", label=labels["threshold-auto"], n=campaign.n)),
        **{key: _median(spans.durations("engine.run_summary", "baselines", label=labels[key]))
           for key in ("two-choices", "threshold-k2")},
    }
    m["rng.draw_s"] = draw_s["threshold-auto"]
    m["rng.ns_per_draw"] = draw_s["threshold-auto"] / facts["rng.draws"] * 1e9
    m["rng.words_per_draw"] = facts["rng.words"] / facts["rng.draws"]
    m["rng.draws"] = facts["rng.draws"]
    m["rng.words"] = facts["rng.words"]
    m["engine.summary_s"] = summary_s["threshold-auto"]
    m["engine.kernel_self_s"] = summary_s["threshold-auto"] - draw_s["threshold-auto"]
    first_pass = min(spans.ops["baselines"])
    for key in ("two-choices", "threshold-k2"):
        m[f"rng.draw_s.{key}"] = draw_s[key]
        m[f"engine.summary_s.{key}"] = summary_s[key]
        m[f"engine.kernel_self_s.{key}"] = summary_s[key] - draw_s[key]
        m[f"engine.rejections.{key}"] = sum(
            s["attrs"]["rejections"]
            for _i, s in spans.find("engine.run_summary", "baselines", label=labels[key])
            if s["op"] == first_pass)

    run_trials = spans.find("experiments.run_trials", "campaign")
    m["engine.rejections"] = run_trials[0][1]["attrs"]["rejections"]
    m["engine.run_s"] = _median(spans.durations("engine.run", "trace", n=trace.n))
    m["engine.to_json_s"] = _median(spans.durations("engine.Trace.to_json", "trace"))
    m["engine.from_json_s"] = _median(spans.durations("engine.trace_from_json", "trace"))
    m["engine.replay_s"] = _median(spans.durations("engine.replay", "trace"))
    m["engine.summary_peak_mb"] = facts["engine.summary_peak_mb"]
    m["engine.run_peak_mb"] = facts["engine.run_peak_mb"]

    run_trials_s = _median(spans.durations("experiments.run_trials", "campaign"))
    busy_s = campaign.trials * summary_s["threshold-auto"]  # estimated from the probes
    m["experiments.run_trials_s"] = run_trials_s
    m["experiments.dispatch_s"] = run_trials_s - busy_s / campaign.workers
    m["experiments.parallel_efficiency"] = busy_s / (campaign.workers * run_trials_s)
    m["experiments.stage_diagnostics_s"] = _median(
        spans.durations("experiments.stage_diagnostics", "trace"))

    enumerations = spans.find("oracle.exact_maxload_distribution", "oracle")
    first_pass = min(spans.ops["oracle"])
    runs = sum(s["attrs"]["engine_runs"] for _i, s in enumerations if s["op"] == first_pass)
    m["oracle.enumeration_s"] = _median(spans.per_op_sum("oracle.exact_maxload_distribution", "oracle"))
    m["oracle.engine_runs"] = runs
    m["oracle.us_per_engine_run"] = m["oracle.enumeration_s"] / max(runs, 1) * 1e6
    dp_n, dp_t = workloads["oracle"].dp
    m["oracle.dp_s"] = _median(spans.durations("oracle.exact_one_choice_maxload", "oracle", n=dp_n))
    m["oracle.dp_cells"] = dp_n * dp_t
    m["checks.suite_s"] = _median(spans.durations("checks.run_suite", "oracle"))

    main_spans = spans.find("cli.main", "campaign")
    m["cli.main_s"] = _median(spans.durations("cli.main", "campaign"))
    m["cli.emit_s"] = _median(spans.self_durations("cli.main", "campaign"))
    m["cli.output_bytes"] = main_spans[0][1]["attrs"]["bytes"]
    m["tracing.overhead_s"] = overhead_s
    return m


def identity_check(tracer: Tracer, workloads: dict, overhead_s: float | None) -> str:
    """Does ``rng.draw_s + kernel self time`` add up to ``engine.summary_s``?

    ``rng.draw_s`` comes from the replayed draws, the self time from the
    ``run_summary`` spans whose in-call ``bounded_block`` calls are spanned
    as children, so the sum is not ``summary_s`` by construction.  The
    threshold rule with k=2 draws ball by ball and is not checked.
    """
    campaign, baselines = workloads["campaign"], workloads["baselines"]
    spans = _Spans(tracer)
    checked = {"threshold-auto": (parse_strategy(campaign.strategy, n=campaign.n).label, None)}
    for strategy, bn, _trials in baselines.runs:
        if strategy == "two-choices":
            checked["two-choices"] = (parse_strategy(strategy, n=bn).label, "baselines")
    lines = []
    for key, (label, workload) in checked.items():
        found = spans.find("engine.run_summary", workload, label=label)
        summary_s = _median(s["end"] - s["start"] for _i, s in found)
        in_call_draw_s = _median(spans.child_time[i] for i, _s in found)
        self_s = _median(s["end"] - s["start"] - spans.child_time[i] for i, s in found)
        draw_s = _median(spans.per_op_sum("rng.replay", key=key))
        residual = draw_s + self_s - summary_s
        if overhead_s is None:
            verdict = "tracing overhead unresolved, so not judged against it"
        else:
            verdict = "within" if abs(residual) <= overhead_s else "NOT within"
            verdict += f" the tracing overhead {overhead_s:.4f} s"
        lines.append(
            f"identity {key}: rng.draw_s {draw_s:.4f} + run_summary self {self_s:.4f} "
            f"- engine.summary_s {summary_s:.4f} = {residual:+.4f} s "
            f"({residual / summary_s:+.1%}; in-call draws {in_call_draw_s:.4f} s): {verdict}")
    return "\n".join(lines)
