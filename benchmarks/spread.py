"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 benchmarks/spread.py --workloads campaign,trace --seeds 1-10

For each workload and metric, prints the median of the per-run values and
their spread: the distance between the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median.
``BENCHMARK.json`` fixes, per metric, the bound that spread must stay
within.  ``--save FILE`` writes every run's values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for piece in text.split(","):
        low, _, high = piece.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write all values and the summary to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
            result = json.loads(done.stdout.splitlines()[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: failed {result['failed']} of {result['attempted']}  "
                  + "  ".join(f"{k} {v['value']:.5g} {v['unit']}"
                              for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in bounds if len(runs) > 1 else ():
            values = [run[name] for run in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bounds[name]}
            flag = "" if summary[name]["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:<10} {name:<14} median {summary[name]['median']:.6g}  "
                  f"spread {summary[name]['spread']:.4f}  bound {bounds[name]}{flag}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.save:
        Path(args.save).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
