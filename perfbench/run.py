#!/usr/bin/env python3
"""Builds and runs the simulator benchmark for one workload and seed.

    python3 perfbench/run.py --workload city --seed 7 --seconds 10 --trace 0

Run from the repository root.  The first call configures and compiles the
library from ./src together with the benchmark runner into
$CARGO_TARGET_DIR (default .bench_build)/perfbench; later calls only
rebuild what changed.

The runner is started repeatedly, one process per repetition, for as
long as another repetition, as long as the last one, still ends within
--seconds (at least three repetitions untraced; a traced repetition
already runs the workload three or four times, so one may do).  Every
repetition must pass its correctness checks and reproduce the first one's
outcome digest and modelled metrics exactly; host metrics are reported as
the median over repetitions.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is non-zero when the build or any correctness check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# A traced repetition runs the workload up to four times in one process.
MIN_REPETITIONS = {0: 3, 1: 1}
RUN_TIMEOUT_S = 150

# Metrics taken from the simulation itself: identical in every repetition.
MODELLED = {
    "response_p50_s", "response_tail_s", "success_rate", "coverage_mean",
    "energy_mj_per_query", "bytes_per_query", "estimate_error_p50",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_run", "-j", jobs],
        stdout=subprocess.DEVNULL, stderr=sys.stderr)
    if compiled.returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench_run")


def run_once(binary, args, trace_out):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, proc.returncode
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        return None, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["city", "field", "storm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 2
    trace_out = os.path.join(
        build_dir, "trace-%s-%d.json" % (args.workload, args.seed))

    reports = []
    problems = []
    start = time.monotonic()
    last_s = 0.0
    while (len(reports) < MIN_REPETITIONS[args.trace]
           or time.monotonic() - start + last_s < args.seconds):
        rep_start = time.monotonic()
        report, code = run_once(binary, args, trace_out)
        last_s = time.monotonic() - rep_start
        if report is None:
            log("perfbench: runner exited %d without a report" % code)
            return 3
        reports.append(report)
        problems += report["failures"]
        if code != 0 or not report["correct"]:
            break
        print(json.dumps({k: report[k] for k in (
            "workload", "seed", "trace", "outcome_digest", "order_digest",
            "response_tail_percentile", "response_samples")}), flush=True)

    first = reports[0]
    for rep in reports[1:]:
        if rep["outcome_digest"] != first["outcome_digest"]:
            problems.append("repetitions disagree on the outcome digest")
        for name in MODELLED & first["metrics"].keys():
            if rep["metrics"][name]["value"] != first["metrics"][name]["value"]:
                problems.append("repetitions disagree on %s" % name)
    for problem in sorted(set(problems)):
        log("perfbench: FAILED:", problem)

    metrics = {}
    for name, entry in first["metrics"].items():
        values = [rep["metrics"][name]["value"] for rep in reports]
        metrics[name] = {"value": statistics.median(values), "unit": entry["unit"]}
    if args.trace:
        log("perfbench: chrome trace written to", trace_out)
    # A failed check marks the run failed instead of producing numbers.
    print(json.dumps({
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": metrics if not problems else {},
    }), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
