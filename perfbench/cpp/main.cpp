// One run of one benchmark workload; prints a single JSON object.
//
//   perfbench_run --workload city --seed 7 [--trace 0|1] [--trace-out f]
//
// --trace 0 runs the workload once, untraced, and reports the end-to-end
// metrics.  --trace 1 runs it four times in this process: untraced, traced
// (spans around the benchmark's own calls, then the layer entry points),
// untraced on kParallelLanes lanes, and untraced again.  The two plain
// runs bracket the other two, and their mean run_s is the baseline of both
// the tracing overhead and the lane efficiency, so neither is flattered by
// running on a warmer allocator than its baseline.  It reports the
// per-layer metrics and requires every run to agree on the outcome digest
// and the lockstep order digest.  The exit code is non-zero when any
// correctness check fails.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "workload.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage() {
  std::cerr << "usage: perfbench_run --workload <city|field|storm> --seed <n> "
               "[--trace 0|1] [--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--trace") {
        traced = value == "1";
      } else if (key == "--trace-out") {
        trace_out = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || argc % 2 == 0) return usage();

  perfbench::WorkloadSpec spec;
  try {
    spec = perfbench::make_workload(workload, seed);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return usage();
  }

  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  RunResult main_run;

  if (!traced) {
    main_run = perfbench::run_workload(spec, {});
    const RunResult& r = main_run;
    metrics = {
        {"setup_s", r.setup_s, "s"},
        {"run_s", r.run_s, "s"},
        {"cpu_s", r.cpu_s, "s"},
        {"peak_rss_mb", r.peak_rss_mb, "MiB"},
        // Simulated seconds: exact for a seed, unlike the host times above.
        {"response_p50_s", r.response_p50_s, "sim_s"},
        {"response_tail_s", r.response_tail_s, "sim_s"},
        // 1 - miss_rate: a regression bound is a share of the median, and
        // city and field usually miss nothing, a median of 0.  The miss
        // count itself is reported as "failed".
        {"success_rate", 1.0 - r.miss_rate, "ratio"},
        {"coverage_mean", r.coverage_mean, "ratio"},
        {"energy_mj_per_query", r.energy_mj_per_query, "mJ"},
        {"bytes_per_query", r.bytes_per_query, "bytes"},
        {"estimate_error_p50", r.estimate_error_p50, "ratio"},
    };
    failures = r.failures;
  } else {
    const RunResult untraced = perfbench::run_workload(spec, {});
    perfbench::Tracer tracer;
    main_run = perfbench::run_workload(spec, {0, &tracer, 0.0});
    RunResult parallel;
    if (spec.sharded) {
      parallel = perfbench::run_workload(spec, {perfbench::kParallelLanes});
    }
    const RunResult again = perfbench::run_workload(spec, {});
    const double baseline_s = 0.5 * (untraced.run_s + again.run_s);
    const RunResult* const runs[] = {&untraced, &main_run, &parallel, &again};
    for (const RunResult* r : runs) {
      if (r == &parallel && !spec.sharded) continue;
      failures.insert(failures.end(), r->failures.begin(), r->failures.end());
      if (r->outcome_digest != untraced.outcome_digest ||
          r->order_digest != untraced.order_digest) {
        failures.push_back("digests " + hex(r->outcome_digest) + "/" +
                           hex(r->order_digest) + " != untraced " +
                           hex(untraced.outcome_digest) + "/" +
                           hex(untraced.order_digest));
      }
    }
    // One-lane run_s over parallel run_s: above 1 when the lanes pay off.
    const double lane_efficiency =
        spec.sharded ? baseline_s / parallel.run_s : 1.0;
    metrics = main_run.layers;
    metrics.push_back({"sim.shard.lane_efficiency", lane_efficiency, "ratio"});
    metrics.push_back(
        {"bench.trace_overhead_s", main_run.run_s - baseline_s, "s"});
    if (!trace_out.empty()) {
      std::ofstream file(trace_out);
      file << tracer.chrome_json();
      if (!file) failures.push_back("could not write " + trace_out);
    }
  }

  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());
  std::string json = "{\"workload\":" + quote(workload) +
                     ",\"seed\":" + std::to_string(seed) +
                     ",\"trace\":" + (traced ? "1" : "0") +
                     ",\"correct\":" + (failures.empty() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(main_run.attempted) +
                     ",\"failed\":" + std::to_string(main_run.missed) +
                     ",\"outcome_digest\":" +
                     quote(hex(main_run.outcome_digest)) +
                     ",\"order_digest\":" + quote(hex(main_run.order_digest)) +
                     ",\"response_tail_percentile\":" +
                     num(main_run.response_tail_pct) +
                     ",\"response_samples\":" +
                     std::to_string(main_run.response_samples) +
                     ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) json += ',';
    json += quote(failures[i]);
  }
  json += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ',';
    json += quote(metrics[i].name) + ":{\"value\":" + num(metrics[i].value) +
            ",\"unit\":" + quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return failures.empty() ? 0 : 1;
}
