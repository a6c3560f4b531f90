#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median and spread (interquartile range over median), against the bounds in
BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/steadiness.py <workload> <first-seed> <runs> [seconds]
"""

import json
import statistics
import subprocess
import sys


def main():
    workload, first, runs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    spec = json.load(open("BENCHMARK.json"))
    seconds = int(sys.argv[4]) if len(sys.argv) > 4 else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(first, first + runs):
        out = subprocess.run(
            spec["command"]
            + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True,
            text=True,
        )
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stdout}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{out.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    print(f"{workload}, {runs} seeds from {first}, {seconds} s:")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f"bound {bound:.3f} {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"  {name:<22} median {med:<14.6g} IQR/median {spread:.4f}  {flag}")


if __name__ == "__main__":
    main()
