#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 --seeds 11-20 --seconds 20

For every workload in BENCHMARK.json, every set of seeds and every seed in
it, runs perfbench/run.py untraced.  Prints, per end-to-end metric and set,
the median, the first and third quartiles (statistics.quantiles(values,
n=4)) and the spread (q3 - q1) / median; with two sets, also the drift of
the second set's median against the first's in the metric's bad direction.
Run it from the repository root.  It exits non-zero if a run fails, if a
spread exceeds the metric's bound, or if the second median is worse than
the first by more than the bound: the acceptance rule of the benchmark
contract, which checks the drift of setup_s but not its spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workload, seeds, seconds):
    """Returns {metric: [value per seed]}, or None if a run failed."""
    values = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0"], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if proc.returncode != 0 or not result["correct"]:
            print("%s seed %d failed" % (workload, seed), file=sys.stderr)
            return None
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    return values


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", action="append",
                        help="a seed range such as 1-10; give it twice to "
                             "compare two sets")
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--workload", action="append",
                        help="only this workload (default: all)")
    args = parser.parse_args()
    seed_sets = args.seeds or ["1-10"]

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = str(args.seconds or bench["run_seconds"])
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        sets = [run_set(workload, seeds_of(s), seconds) for s in seed_sets]
        if None in sets:
            ok = False
            continue
        print("\n### %s (seeds %s, %s s per run)\n"
              % (workload, " and ".join(seed_sets), seconds))
        header = "| metric | unit |"
        for s in seed_sets:
            header += " median %s | q1..q3 | spread |" % s
        if len(sets) == 2:
            header += " drift |"
        print(header + " bound |")
        print("|---" * header.count("|") + "|")
        for name, metric in metrics.items():
            bound = metric["bound"]
            row = "| %s | %s |" % (name, metric["unit"])
            medians = []
            for values in sets:
                med, q1, q3, spread = summary(values[name])
                medians.append(med)
                ok = ok and (spread <= bound or name == "setup_s")
                row += " %.4g | %.4g..%.4g | %.3f |" % (med, q1, q3, spread)
            if len(sets) == 2:
                drift = medians[1] / medians[0] - 1.0
                if metric["better"] == "higher":
                    drift = -drift
                ok = ok and drift <= bound
                row += " %+.3f |" % drift
            print(row + " %.2f |" % bound)
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
