#!/usr/bin/env bash
# CI entry point: build both presets (plain + ASan/UBSan) and run the full
# test suite under each.  Any warning is an error (PGRID_WERROR=ON); any
# sanitizer finding aborts the run (-fno-sanitize-recover=all).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

for preset in default asan-ubsan; do
  echo "=== configure: ${preset} ==="
  cmake --preset "${preset}"
  echo "=== build: ${preset} ==="
  cmake --build --preset "${preset}" -j "${JOBS}"
  echo "=== test: ${preset} (heavy sweeps) ==="
  # The suites are labelled by weight (tests/CMakeLists.txt): `heavy` marks
  # the deployment-scale chaos/load/property sweeps that dominate the wall
  # clock — an order of magnitude more so under the sanitizers.  Running
  # them as their own stage (COST-ordered, widest first) keeps the longest
  # test off the tail of the run and surfaces sweep failures before the
  # hundreds of fast unit cases queue up behind them.
  ctest --preset "${preset}" -j "${JOBS}" -L heavy
  echo "=== test: ${preset} (fast suites) ==="
  ctest --preset "${preset}" -j "${JOBS}" -LE heavy
done

echo "=== tsan: lockstep sharding, thread pool and the city lanes under the race detector ==="
# The sharded lockstep layer is the one place worker threads touch
# simulators concurrently (one lane per shard, mailbox exchange at window
# barriers), so its property suite, sharded failover (checkpoints and
# neighbour adoption on parallel lanes), the thread-pool/runtime suites and
# the flow-tier city (four regions on four lanes, bench_scenario --city
# --quick with its gates) run under ThreadSanitizer.  Gated on libtsan
# actually linking, so the stage degrades to a notice on images without it.
if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - -o /tmp/pgrid_tsan_probe 2>/dev/null; then
  rm -f /tmp/pgrid_tsan_probe
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" \
    --target test_common test_property_shard test_whatif test_failover \
    bench_scenario
  for tsan_bin in test_common test_property_shard test_whatif test_failover; do
    TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
      "out/tsan/tests/${tsan_bin}"
  done
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    out/tsan/bench/bench_scenario --city --quick > /dev/null
else
  echo "tsan: libtsan unavailable on this image; stage skipped"
fi

echo "=== chaos smoke: 25 seeds/mix, all invariants, asan-ubsan ==="
# Seeded fault-injection sweep under the sanitizer build: 25 seeds per
# canned mix (75 scenarios), every invariant checked after each run.  On a
# violation the test prints the exact seed, mix, fault count, sensor count
# and horizon, and the minimized fault schedule; reproduce locally with the
# printed command, e.g.
#   PGRID_CHAOS_SEED=<seed> PGRID_CHAOS_MIX=<mix> PGRID_CHAOS_FAULTS=10 \
#   PGRID_CHAOS_SENSORS=16 PGRID_CHAOS_HORIZON_S=60 \
#     out/asan-ubsan/tests/test_chaos --gtest_filter='ChaosReplay.ReplaySeed'
PGRID_CHAOS_SEEDS=25 out/asan-ubsan/tests/test_chaos \
  --gtest_filter='ChaosSweep.*'

echo "=== bench smoke: kernel + decision maker + topology + reliability + city + load + mobile ==="
# Quick-mode perf smoke on the plain build: the binaries must run, emit
# schema-valid JSON, and the kernel/topology/reliability/scenario benches
# must pass their built-in determinism/oracle/ablation gates (non-zero exit
# otherwise).  The kernel, topology, reliability, and scenario reports are
# kept as BENCH_kernel.json / BENCH_topology.json / BENCH_resilience.json /
# BENCH_scenario.json — the perf and robustness trajectory across PRs.  The
# resilience run is the EXP-R1 sweep: reliability on/off over identical
# seeded chaos schedules, with the success-rate, coverage, exactly-once,
# ledger-conservation, and kill-switch bit-identity gates enforced inside
# the binary.  The failover run is EXP-R2: protected / unprotected /
# kill-switch arms over identical seeded base-station crashes plus the
# two-region adoption arm, gating on exactly-once completion, mean
# coverage >= 0.9 protected, demonstrable query loss unprotected, and
# disabled-path bit-identity; kept as BENCH_failover.json.  The scenario
# run is EXP-N2 at CI size: the flow-tier calibration sweep against the
# packet oracle and a sharded multi-region city run in flow mode — all
# gates enforced via the exit code.  The full-size city (36 regions x 2,916
# sensors, ~0.4 s) runs beside it and is kept as BENCH_city.json, so the
# trajectory carries a full-scale point next to the CI-size one.
# The load run is EXP-Q1: the multi-query sharing sweep — overlapping
# standing aggregates with and without shared TAG trees on identical
# seeds, gating on >=3x sustained qps at <=1% deadline-miss, strictly
# fewer radio transmissions shared than unshared, and sharing kill-switch
# fingerprint bit-identity; kept as BENCH_load.json.  The topology run
# also carries EXP-N3: the incremental-topology-epoch mobility sweep —
# patched snapshots and surviving cached routes checked bit-identical
# against the fresh-full-rebuild oracle, with the steady-state route-
# acquisition speedup gate (>=2x at the --quick size, >=5x at N=1600 in
# the full run, both over a baseline that forces a global epoch after
# every mobility step) enforced in the exit code.  The mobile run is the
# EXP-N3 scenario slice: the query suite under seeded waypoint walkers,
# gating on cached routes equal to shortest_path_naive and snapshot rows
# equal to neighbors_naive at every sync point; kept as BENCH_mobile.json
# (rows patched, scoped and global epochs, route-cache hits).
out/default/bench/bench_sim_kernel --json --quick > BENCH_kernel.json
out/default/bench/bench_decision_maker --json > /tmp/bench_dm.json
out/default/bench/bench_routing --json --quick > BENCH_topology.json
out/default/bench/bench_resilience --chaos --json > BENCH_resilience.json
out/default/bench/bench_resilience --failover --quick --json > BENCH_failover.json
out/default/bench/bench_scenario --city --quick --json > BENCH_scenario.json
out/default/bench/bench_scenario --city --json > BENCH_city.json
out/default/bench/bench_scenario --load --quick --json > BENCH_load.json
out/default/bench/bench_scenario --mobile --json > BENCH_mobile.json
python3 - BENCH_kernel.json /tmp/bench_dm.json BENCH_topology.json BENCH_resilience.json BENCH_failover.json BENCH_scenario.json BENCH_city.json BENCH_load.json BENCH_mobile.json <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as fh:
        report = json.load(fh)
    for key in ("experiment", "claim", "series"):
        assert key in report, f"{path}: missing {key!r}"
    assert report["series"], f"{path}: no series"
    for series in report["series"]:
        for key in ("name", "columns", "rows"):
            assert key in series, f"{path}: series missing {key!r}"
        width = len(series["columns"])
        assert all(len(row) == width for row in series["rows"]), (
            f"{path}: ragged rows in series {series['name']!r}")
    print(f"bench JSON ok: {path} ({len(report['series'])} series)")
PY

echo "=== perfbench self-test: city, field, storm (Release) ==="
# The benchmark's own self-tests on its three full-size workloads: the same
# seed gives identical digests and modelled metrics across runs and across
# 1 vs 4 lanes, and a traced run matches an untraced one.  Built in Release
# from the same sources, so it checks the default topology discipline end
# to end on every workload.
cmake -S perfbench -B out/perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build out/perfbench -j "${JOBS}" --target perfbench_test
out/perfbench/perfbench_test

echo "CI OK: both presets built, all tests passed, bench smoke clean, perfbench self-test clean."
