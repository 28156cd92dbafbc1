#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload steady [--runs 10] [--seconds 10]

Runs perfbench/run.py once per seed (1..runs, or --first-seed onward) and
prints, for each end-to-end metric of BENCHMARK.json, the median of the
runs and the distance between their first and third quartiles as a share
of that median (statistics.quantiles(values, n=4)). A spread is flagged
when it is not below a third of the metric's bound; setup_s is shown but
not judged, since its bound guards the median rather than the spread.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in values),
            flush=True)

    flagged = 0
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        mid = statistics.median(v)
        spread = (q3 - q1) / mid if mid else float("inf")
        judged = metric["name"] != "setup_s"
        ok = not judged or spread < metric["bound"] / 3
        flagged += not ok
        print(f"{metric['name']:<24} median {mid:<14.6g} spread {spread:7.4f}"
              f"  bound/3 {metric['bound'] / 3:.4f}"
              f"{'' if ok else '  <-- too wide'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
