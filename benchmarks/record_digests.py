"""Record the per-operation output digests of every workload.

    python3 benchmarks/record_digests.py --seeds 0-99,1000003

Run it only at a commit whose outputs are trusted.  The benchmark checks
every pass of a recorded seed against these digests, on top of its own
reference (1 worker against 2 for the campaign, the warm-up pass for the
others).  The oracle's exact outputs take no seed and are recorded once.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, import_thinlab
from spread import seed_list


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99,1000003")
    args = parser.parse_args(argv)
    import_thinlab()
    from workloads import UNTRACED, WORKLOADS, Failure

    path = HERE / "digests.json"
    table = json.loads(path.read_text())
    for name, workload_class in WORKLOADS.items():
        seeds = ["any"] if name == "oracle" else seed_list(args.seeds)
        for seed in seeds:
            outputs = workload_class(0 if seed == "any" else seed).run(UNTRACED)
            failures = {op: v for op, v in outputs.items() if isinstance(v, Failure)}
            if failures:
                raise SystemExit(f"{name} seed {seed}: {failures}")
            table.setdefault(name, {})[str(seed)] = outputs
            print(f"{name} {seed}: {outputs}", flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
