"""thinlab's benchmark: one command, every metric by name with its unit.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads: campaign, baselines, trace, oracle (see workloads.py).  Each run
is closed-loop: one caller runs a pass, waits for every call in it, and
starts the next pass, for ``--seconds`` seconds (default: ``run_seconds``
of BENCHMARK.json).  The only parallelism is the campaign's own 2 worker
processes.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, the median pass
(its fastest and tail are printed too), ``trials_per_s`` and
``balls_per_s`` at that pass, ``peak_rss_mb`` and ``setup_s`` (median
over fresh interpreters of import plus input generation, half of them
timed before the passes and half after).  Every time among them is scaled
to the host's fast speed by reference work timed just before and after
each pass and each set-up (calibration.py); the raw times are printed
beside them.  ``--trace 1`` prints the
per-layer metrics of a traced run (layers.py) and writes its spans to
``.bench_out/``.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.

The program measured is the thinlab source under ``src/`` of the checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("campaign", "baselines", "trace", "oracle")
SETUP_SAMPLES = 12  # timed; one more, untimed, first compiles the bytecode
RUN_LIMIT_S = 170  # every run must end within 180 s
TRACED_REPETITIONS = 2  # traced passes of every workload in a traced run
OVERHEAD_PAIRS = 5  # fewest pairs a sign test at 5% can resolve


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test; no recorded digests apply")
    parser.add_argument("--role", choices=("main", "setup", "runner"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_argv(args, role: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--tiny"] if args.tiny else [])


# --------------------------------------------------------------------------
# Orchestrator: times fresh interpreters to ready, then runs the passes in a
# child so that its peak memory covers the passes and their workers only.


def main_role(args) -> int:
    if not (SRC / "thinlab" / "__init__.py").is_file():
        print(f"benchmark: no thinlab source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    # Set-up is timed in fresh interpreters, half before the passes and half
    # after, so that a slow stretch of the host weighs on fewer samples.  The
    # first start, untimed, writes the bytecode caches that later starts read.
    timed = 0 if args.trace else SETUP_SAMPLES
    before = time_setups(args, deadline, 1 + timed // 2)
    if before is None:
        return 1
    runner = subprocess.Popen(child_argv(args, "runner"), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = runner.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        runner.kill()
        runner.communicate()
        print("benchmark: the runner did not finish in time", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if runner.returncode != 0 or not lines:
        print(f"benchmark: the runner failed with status {runner.returncode}", file=sys.stderr)
        return 1
    after = time_setups(args, deadline, timed - timed // 2)
    if after is None:
        return 1
    setup = before[1:] + after
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if setup:
        raw = [elapsed for elapsed, _scaled in setup]
        scaled = [value for _elapsed, value in setup]
        median = statistics.median(scaled)
        print(f"setup_s          median {median:.4f} s at the fast speed  "
              f"(raw median {statistics.median(raw):.4f} s)  samples "
              + " ".join(f"{v:.4f}" for v in scaled) + f"  (n={len(setup)})")
        result["metrics"]["setup_s"] = {"value": median,
                                        "unit": metric_units("end_to_end")["setup_s"]}
    print(json.dumps(result))
    return 0


def time_setups(args, deadline: float, count: int) -> list[tuple[float, float]] | None:
    """``count`` set-up times, each raw and at the fast speed, or None as soon
    as one set-up fails.  A reference start runs before the first set-up and
    after each one (calibration.py)."""
    times = []
    before = calibration.reference_start() if count else None
    for _ in range(count):
        elapsed = calibration.time_to_ready(child_argv(args, "setup"),
                                            deadline - time.monotonic())
        if elapsed is None:
            print("benchmark: a set-up failed or timed out", file=sys.stderr)
            return None
        after = calibration.reference_start()
        times.append((elapsed, calibration.scaled(elapsed, before, after,
                                                  calibration.START_REFERENCE_S)))
        before = after
    return times


# --------------------------------------------------------------------------
# Children: import thinlab from the checkout's source, never from elsewhere.


def import_thinlab() -> None:
    sys.path.insert(0, str(SRC))
    import thinlab

    if Path(thinlab.__file__).resolve().parent != (SRC / "thinlab").resolve():
        raise SystemExit(f"benchmark: imported thinlab from {thinlab.__file__}, not {SRC}")


def setup_role(args) -> int:
    import_thinlab()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, args.tiny)
    print("ready", flush=True)
    return 0


def runner_role(args) -> int:
    import_thinlab()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced_run(args)
    else:
        result = timed_run(args)
    print(json.dumps(result))
    return 0


def timed_run(args) -> dict:
    from workloads import UNTRACED, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    outputs = [workload.run(UNTRACED)]  # untimed warm-up
    # Peak memory of the set-up and the warm-up pass, which every timed pass
    # repeats; read before the calibration, whose kernel and processes are
    # the benchmark's own, not the program's.
    peak_mb = peak_rss_mb()
    # Calibration blocks keep as many processes busy as the pass does.
    calibration.block(workload.workers)  # untimed warm-up
    walls, scaled, blocks = [], [], [calibration.block(workload.workers)]
    start = time.perf_counter()
    last = 0.0
    # Stop before a pass that, as long as the last one, would end late.
    while not walls or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        outputs.append(workload.run(UNTRACED))
        walls.append(time.perf_counter() - t0)
        blocks.append(calibration.block(workload.workers))
        scaled.append(calibration.scaled(walls[-1], blocks[-2], blocks[-1],
                                         calibration.KERNEL_REFERENCE_S))
        last = time.perf_counter() - t0
    attempted, failed, bad_passes = check_outputs(args, workload, outputs)
    # Each pass is scaled to the host's fast speed by the calibration
    # blocks run just before and just after it (calibration.py); wall_s is
    # the median scaled pass among those that passed their checks.
    good = [v for i, v in enumerate(scaled, 1) if i not in bad_passes] or scaled
    wall = statistics.median(good)
    metrics = {
        "wall_s": wall,
        "trials_per_s": workload.trials / wall,
        "balls_per_s": workload.balls / wall,
        "peak_rss_mb": peak_mb,
    }
    print(f"{args.workload} seed={args.seed} passes={len(walls)} "
          f"trials/pass={workload.trials} balls/pass={workload.balls}")
    print(f"wall_s           median {wall:.4f} s  fastest {min(good):.4f} s  "
          f"{tail_text(good)}  (n={len(good)}, at the fast speed)")
    print(f"raw wall         median {statistics.median(walls):.4f} s  "
          f"fastest {min(walls):.4f} s  (n={len(walls)})")
    print(f"calibration      median {statistics.median(blocks):.4f} s  "
          f"fastest {min(blocks):.4f} s  reference {calibration.KERNEL_REFERENCE_S} s  "
          f"(n={len(blocks)} blocks of {calibration.BLOCK_CALLS} kernel calls "
          f"in each of {workload.workers} processes)")
    units = metric_units("end_to_end")
    for name in ("trials_per_s", "balls_per_s", "peak_rss_mb"):
        print(f"{name:<16} {metrics[name]:.6g} {units[name]}")
    print(f"failed_frac      {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    print("facts " + json.dumps(machine_facts(args, workload)))
    return result(attempted, failed, {k: (v, units[k]) for k, v in metrics.items()})


def traced_run(args) -> dict:
    import layers
    from tracing import Tracer
    from workloads import UNTRACED, WORKLOADS, instrumented

    workloads = {name: cls(args.seed, args.tiny) for name, cls in WORKLOADS.items()}
    outputs = {name: [] for name in workloads}
    tracer = Tracer()

    def timed_pass(name: str, traced: bool) -> float:
        t0 = time.perf_counter()
        if traced:
            tracer.new_op()
            with instrumented(tracer), tracer.span("pass", workload=name):
                outputs[name].append(workloads[name].run(tracer))
        else:
            outputs[name].append(workloads[name].run(UNTRACED))
        return time.perf_counter() - t0

    # Per-layer spans: after an untimed warm-up, traced passes of every
    # workload plus the probes.  Tracing overhead: untraced and traced passes
    # of the named workload back to back, in alternating order so that a
    # steady drift of the host cancels, for --seconds and at least
    # OVERHEAD_PAIRS pairs; their traced passes add to the spans.
    for name in workloads:
        timed_pass(name, traced=False)
    for _ in range(TRACED_REPETITIONS):
        for name in workloads:
            timed_pass(name, traced=True)
        facts = layers.probe(tracer, args.seed, workloads)
    differences = []
    start = time.perf_counter()
    while len(differences) < OVERHEAD_PAIRS or time.perf_counter() - start < args.seconds:
        order = (False, True) if len(differences) % 2 == 0 else (True, False)
        walls = {traced: timed_pass(args.workload, traced) for traced in order}
        differences.append(walls[True] - walls[False])
    overhead = statistics.median(differences)
    metrics = layers.per_layer_metrics(tracer, facts, workloads, overhead)
    attempted = failed = 0
    for name, workload in workloads.items():
        a, f, _bad = check_outputs(args, workload, outputs[name])
        attempted += a
        failed += f
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    print(f"traced run: {TRACED_REPETITIONS} repetitions of every workload and "
          f"{len(differences)} pairs of {args.workload}, spans in {spans_path.relative_to(ROOT)}")
    # Tracing adds a few spans per pass, far less than the host's noise.  The
    # overhead counts as resolved only when a one-sided sign test at 5%
    # says the traced pass is slower more often than chance would make it.
    slower = sum(d > 0 for d in differences)
    p_value = sum(math.comb(len(differences), k)
                  for k in range(slower, len(differences) + 1)) / 2 ** len(differences)
    resolved = overhead > 0 and p_value <= 0.05
    q1, _q2, q3 = statistics.quantiles(differences, n=4)
    print(f"tracing.overhead_s {'resolved' if resolved else 'UNRESOLVED (host noise)'}: "
          f"median {overhead:+.4f} s of traced minus untraced {args.workload} passes, "
          f"quartiles {q1:+.4f} {q3:+.4f} s, traced slower in {slower} of "
          f"{len(differences)} pairs (sign test p={p_value:.3f})")
    print(layers.identity_check(tracer, workloads, overhead if resolved else None))
    print(f"{'span':<36} {'count':>6} {'total_s':>10} {'self_s':>10}")
    for name, (count, total, self_s) in sorted(tracer.self_times().items(),
                                                key=lambda item: -item[1][2]):
        print(f"{name:<36} {count:>6} {total:>10.4f} {self_s:>10.4f}")
    units = metric_units("per_layer")
    for name, value in metrics.items():
        print(f"{name:<36} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    print("facts " + json.dumps(machine_facts(args, workloads[args.workload])))
    return result(attempted, failed, {k: (v, units[k]) for k, v in metrics.items()})


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(kind: str) -> dict[str, str]:
    """Units of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def run_seconds() -> float:
    return benchmark_spec()["run_seconds"]


def check_outputs(args, workload, outputs: list[dict]) -> tuple[int, int, set[int]]:
    """Compare every pass's digests with the reference and recorded digests.

    Returns operations attempted, operations failed, and the indices of the
    passes with a failed operation.
    """
    from workloads import Failure

    reference = workload.reference(outputs[0])
    recorded = {} if args.tiny else recorded_digests(workload.name, args.seed)
    attempted = failed = 0
    problems, bad_passes = set(), set()
    for index, output in enumerate(outputs):
        for op, value in output.items():
            attempted += 1
            if isinstance(value, Failure):
                problem = value
            elif value != reference.get(op):
                problem = "output differs from the reference"
            elif op in recorded and value != recorded[op]:
                problem = "output differs from the recorded digest"
            else:
                continue
            failed += 1
            bad_passes.add(index)
            problems.add(f"{workload.name} {op}: {problem}")
    for problem in sorted(problems):
        print(f"FAILED {problem}")
    coverage = "recorded digests and reference" if recorded else "reference only"
    print(f"checked {workload.name}: {attempted} operations against {coverage}")
    return attempted, failed, bad_passes


def recorded_digests(workload: str, seed: int) -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        table = json.load(handle).get(workload, {})
    return table.get("any", table.get(str(seed), {}))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped workers.

    Linux reports the largest reaped child's peak, not a sum over children.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def tail_text(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    k = len(values) - 10
    if k < 1:
        return "tail: none (fewer than 11 samples)"
    return f"p{100 * k // len(values)} {sorted(values)[k - 1]:.4f} s"


def machine_facts(args, workload) -> dict:
    import numpy

    facts = {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "computed_bytes_int64_array": {
            str(n): 8 * n for n in sorted(set(workload.sizes))},
    }
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            facts[key.strip()] = value.strip()
    return facts


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("benchmark: --seconds must be positive")
    return {"main": main_role, "setup": setup_role, "runner": runner_role}[args.role](args)


if __name__ == "__main__":
    sys.exit(main())
