"""Run-to-run spread of the end-to-end metrics.

    python3 bench/steadiness.py [--runs 10] [--first-seed 1000] [WORKLOAD ...]

Runs each workload ``--runs`` times, each with the next seed, and prints for
each end-to-end metric its median and its spread: the distance between the
first and third quartiles as a share of the median.  A spread above the
metric's bound in BENCHMARK.json is marked.  The default first seed is the
holdout seed of spec.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=spec["seeds"]["holdout"])
    args = parser.parse_args()

    for name in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        failed = [r["failed"] for r in results]
        print(f"{name}: {args.runs} runs, failed {failed}, "
              f"correct {all(r['correct'] for r in results)}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            mark = "  ABOVE BOUND" if spread > metric["bound"] else ""
            print(f"  {metric['name']:14} median {med:12.6g} {metric['unit']:5} "
                  f"spread {spread:.3f} (bound {metric['bound']}){mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
