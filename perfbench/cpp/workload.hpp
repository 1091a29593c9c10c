// The benchmark's workloads and the runner that drives them through the
// library's public API.
//
// A workload is a pure function of (name, seed): every arrival, walker and
// chaos schedule is fixed before the run starts (open loop in simulated
// time), so the modelled metrics are exact for a seed while host metrics
// measure how long the simulator takes to produce them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "trace.hpp"

namespace perfbench {

enum class QueryKind {
  kRead,          ///< one sensor, one-shot
  kAvg,           ///< one-shot aggregate
  kMax,           ///< one-shot aggregate
  kDistribution,  ///< TEMP_DISTRIBUTION, a PDE solve
  kContinuous,    ///< standing aggregate over `epoch_s` epochs
};

struct Arrival {
  std::size_t region = 0;  ///< region that originates the query
  std::size_t target = 0;  ///< region that answers it (ring neighbour when
                           ///< forwarded over the backhaul)
  double at_s = 0.0;       ///< scheduled arrival, simulated seconds
  QueryKind kind = QueryKind::kAvg;
  std::string function = "AVG";  ///< aggregate of kContinuous queries
  double epoch_s = 1.0;          ///< epoch length of kContinuous queries
  /// kRead: the target's rank by distance from the base station, as a
  /// fraction in [0, 1); resolved to a sensor index when the run is set up.
  double read_quantile = 0.0;
  std::size_t sensor_index = 0;  ///< kRead: index into the region's sensors

  bool one_shot() const { return kind != QueryKind::kContinuous; }
};

struct Transfer {
  std::size_t from = 0;
  std::size_t to = 0;
  double at_s = 0.0;
  std::uint64_t bytes = 0;
};

struct WorkloadSpec {
  std::uint64_t seed = 0;
  /// Region template.  Workloads set only policy switches (reliability,
  /// flow, sharing, failover, sharding) and sizes on it.
  pgrid::core::RuntimeConfig base;
  std::size_t regions = 1;
  /// false = one plain PervasiveGridRuntime (no lockstep layer at all).
  bool sharded = true;
  std::vector<Arrival> arrivals;
  std::vector<Transfer> transfers;
  /// Chaos mix of regions 0, 1, ... (regions past the end get none);
  /// station failover is armed wherever chaos is.
  std::vector<std::string> chaos_mix;
  std::size_t faults_per_region = 0;
  std::size_t walkers = 0;  ///< waypoint walkers (single-region workloads)
  /// Arrivals, faults and walkers all fall within [0, horizon_s).
  double horizon_s = 0.0;
};

/// Lanes of the traced run's parallel replay of a sharded workload.  The
/// measured runs use one lane: on a shared host every lane thread waits at
/// each window's barrier for the slowest, so the wall time of a multi-lane
/// run follows the other tenants' load more than the simulator's work.
/// Under three busy background processes on a 4-core machine, storm's
/// run_s grew 2.2x on four lanes and 1.45x on one.
inline constexpr std::size_t kParallelLanes = 4;

/// Workload names, in the order the benchmark lists them.
const std::vector<std::string>& workload_names();

/// Builds a workload from its seed.  Throws std::invalid_argument on an
/// unknown name.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

/// The query text an arrival submits (kRead: after sensor_index is set).
std::string query_text(const Arrival& arrival);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::size_t lanes = 0;   ///< 0 = the workload's own lane count
  Tracer* tracer = nullptr;  ///< non-null: record spans and probe layers
  /// Added to every reference answer; non-zero only to prove the
  /// reference gate can fail.
  double reference_bias = 0.0;
};

struct RunResult {
  std::vector<std::string> failures;  ///< failed correctness checks
  bool correct() const { return failures.empty(); }

  std::size_t attempted = 0;  ///< submitted queries
  std::size_t missed = 0;     ///< failed, shed, late or coverage < 0.8

  // Host (wall clock) metrics.
  double setup_s = 0.0;
  double run_s = 0.0;  ///< drain plus teardown
  double cpu_s = 0.0;        ///< process CPU up to the end of the run
  double peak_rss_mb = 0.0;  ///< process peak RSS up to the end of the run
  std::size_t threads_after_setup = 0;

  // Modelled metrics (simulated time; exact for a seed).
  double response_p50_s = 0.0;
  double response_tail_s = 0.0;
  double response_tail_pct = 0.0;
  std::size_t response_samples = 0;
  double miss_rate = 0.0;
  double coverage_mean = 0.0;
  double energy_mj_per_query = 0.0;
  double bytes_per_query = 0.0;
  double estimate_error_p50 = 0.0;

  std::uint64_t outcome_digest = 0;
  std::uint64_t order_digest = 0;

  /// Per-layer counters read from public stats after the run, plus host
  /// times of layer entry points when traced.
  std::vector<Metric> layers;
};

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options);

/// True when `answer` matches the executor-independent `reference` within
/// `tolerance` (absolute).  The gate every AVG/MAX answer at coverage 1.0
/// goes through.
bool matches_reference(double answer, double reference, double tolerance);

}  // namespace perfbench
