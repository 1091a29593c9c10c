// Chaos-runner harness: seeded scenarios over a full PervasiveGridRuntime
// deployment with a ChaosEngine armed, every invariant checked after the
// run drains, and — on failure — a replayable seed plus a greedily
// minimized fault schedule.
//
// Used by tests/chaos_test.cpp (sweeps + forced-violation reproduction),
// tests/property_chaos_test.cpp (determinism properties) and indirectly by
// the ci.sh chaos-smoke step.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "agent/deputy.hpp"
#include "agent/platform.hpp"
#include "core/runtime.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"

namespace chaos_harness {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  pgrid::sim::ChaosMix mix = pgrid::sim::ChaosMix::lossy_mesh();
  std::size_t fault_count = 12;
  double horizon_s = 120.0;
  std::size_t query_count = 4;
  std::size_t sensor_count = 16;
  /// Replay: arm exactly this schedule instead of generating one from the
  /// seed (minimization and reproduction paths).
  std::optional<pgrid::sim::Schedule> replay;
  /// Test-only sabotage hook: when a fault matching the predicate is
  /// applied, the harness corrupts its own exactly-once bookkeeping (as if
  /// a completion callback fired twice).  Exists to prove the pipeline —
  /// violation -> printed seed -> minimized schedule -> replay — works.
  std::function<bool(const pgrid::sim::Fault&)> sabotage;
};

struct ScenarioResult {
  pgrid::sim::Schedule schedule;      ///< the schedule that was armed
  std::vector<pgrid::sim::Violation> violations;
  std::size_t faults_injected = 0;
  std::size_t crash_transitions = 0;  ///< NodeChurn-style callbacks observed
  std::size_t queries_ok = 0;
  std::size_t queries_failed = 0;
  pgrid::net::NetworkStats net_stats;
  pgrid::net::TopologyStats topology;  ///< scoped vs global epochs taken
  pgrid::telemetry::Cost ledger_total;
  double ledger_chaos_count = 0.0;

  bool passed() const { return violations.empty(); }
  std::string violation_text() const {
    std::ostringstream out;
    for (const auto& v : violations) {
      out << "  invariant '" << v.invariant << "': " << v.detail << "\n";
    }
    return out.str();
  }
};

/// One full scenario: build a small deployment, arm the chaos schedule,
/// drive queries and deputy pings through it, drain, check every invariant.
inline ScenarioResult run_scenario(const ScenarioConfig& config) {
  namespace sim = pgrid::sim;
  namespace net = pgrid::net;
  namespace agent = pgrid::agent;

  pgrid::core::RuntimeConfig rc;
  rc.seed = config.seed;
  rc.sensors.sensor_count = config.sensor_count;
  rc.sensors.width_m = 40.0;
  rc.sensors.height_m = 40.0;
  rc.advertise_sensor_services = false;  // keep startup light: 50+ scenarios
  pgrid::core::PervasiveGridRuntime runtime(rc);

  ScenarioResult result;
  sim::ChaosEngine engine(runtime.network(), config.seed);
  engine.set_transition_callback(
      [&](net::NodeId, bool) { ++result.crash_transitions; });

  // Exactly-once bookkeeping: each submitted query must complete exactly
  // once (either an answer or an error — never both, never twice).
  std::vector<int> completions(config.query_count, 0);
  bool sabotaged = false;
  if (config.sabotage) {
    engine.set_fault_applied_hook([&](const sim::Fault& fault) {
      if (!sabotaged && !completions.empty() && config.sabotage(fault)) {
        sabotaged = true;
        ++completions[0];  // simulate a double-fired completion
      }
    });
  }

  if (config.replay) {
    engine.arm_schedule(*config.replay);
  } else {
    sim::ChaosConfig cc;
    cc.horizon = sim::SimTime::seconds(config.horizon_s);
    cc.fault_count = config.fault_count;
    cc.mix = config.mix;
    engine.arm(cc);
  }
  result.schedule = engine.schedule();

  // Store-and-forward deputy exercise: a base-station agent pings a sensor
  // agent whose deputy queues across disconnections.  Retries are bounded
  // by give_up_after, so the queue must be empty once the run drains.
  auto& platform = runtime.agents();
  const net::NodeId base = runtime.sensors().base_station();
  const net::NodeId ping_node =
      runtime.sensors().sensors().empty() ? base
                                          : runtime.sensors().sensors().front();
  auto saf = std::make_unique<agent::StoreAndForwardDeputy>(
      sim::SimTime::seconds(0.5), sim::SimTime::seconds(10.0));
  agent::StoreAndForwardDeputy* saf_raw = saf.get();
  const agent::AgentId ponger = platform.register_agent(
      std::make_unique<agent::LambdaAgent>(
          "chaos-ponger", ping_node,
          [](agent::LambdaAgent&, const agent::Envelope&) {}),
      std::move(saf));
  const agent::AgentId pinger = platform.register_agent(
      std::make_unique<agent::LambdaAgent>(
          "chaos-pinger", base,
          [](agent::LambdaAgent&, const agent::Envelope&) {}));

  auto& sim_kernel = runtime.simulator();
  const std::size_t ping_count = 1 + static_cast<std::size_t>(
                                         config.horizon_s / 15.0);
  for (std::size_t i = 0; i < ping_count; ++i) {
    sim_kernel.schedule(sim::SimTime::seconds(3.0 + 15.0 * double(i)), [&,
                                                                        i] {
      agent::Envelope ping;
      ping.sender = pinger;
      ping.receiver = ponger;
      ping.performative = agent::Performative::kInform;
      ping.content_type = "text/plain";
      ping.payload = "ping-" + std::to_string(i);
      platform.send(std::move(ping));
    });
  }

  // Queries staggered across the horizon so fault windows overlap them.
  const char* kQueries[] = {
      "SELECT AVG(temp) FROM sensors",
      "SELECT MAX(temp) FROM sensors",
      "SELECT COUNT(temp) FROM sensors",
      "SELECT MIN(temp) FROM sensors",
  };
  for (std::size_t i = 0; i < config.query_count; ++i) {
    const double at_s =
        2.0 + (config.horizon_s * 0.7) * double(i) /
                  double(std::max<std::size_t>(1, config.query_count));
    sim_kernel.schedule(sim::SimTime::seconds(at_s), [&, i] {
      runtime.submit(kQueries[i % 4], [&, i](pgrid::core::QueryOutcome out) {
        ++completions[i];
        if (out.ok) {
          ++result.queries_ok;
        } else {
          ++result.queries_failed;
        }
      });
    });
  }

  sim_kernel.run();

  result.faults_injected = engine.injected().size();
  result.net_stats = runtime.network().stats();
  result.topology = runtime.network().topology_stats();
  result.ledger_total = runtime.telemetry().total();
  result.ledger_chaos_count = static_cast<double>(
      runtime.telemetry()
          .totals()[pgrid::telemetry::Subsystem::kChaos]
          .count);

  sim::InvariantRegistry registry;
  registry.add("ledger-conservation", [&] {
    return sim::check_ledger_conservation(runtime.telemetry());
  });
  registry.add("no-open-spans", [&] {
    return sim::check_no_open_spans(runtime.telemetry());
  });
  registry.add("kernel-pending-exact", [&] {
    return sim::check_kernel_pending_exact(runtime.simulator());
  });
  registry.add("sink-tree-consistent", [&] {
    return sim::check_sink_tree_consistent(runtime.network(), base);
  });
  registry.add("topology-caches-fresh", [&] {
    return sim::check_topology_caches_fresh(runtime.network());
  });
  registry.add("chaos-quiescent",
               [&] { return sim::check_chaos_quiescent(engine); });
  registry.add("query-exactly-once", [&]() -> std::optional<std::string> {
    for (std::size_t i = 0; i < completions.size(); ++i) {
      if (completions[i] != 1) {
        std::ostringstream out;
        out << "query " << i << " completed " << completions[i]
            << " time(s), expected exactly 1";
        return out.str();
      }
    }
    return std::nullopt;
  });
  registry.add("platform-conservation", [&]() -> std::optional<std::string> {
    const agent::PlatformStats& stats = platform.stats();
    if (stats.sent != stats.delivered + stats.failed) {
      std::ostringstream out;
      out << "platform sent " << stats.sent << " != delivered "
          << stats.delivered << " + failed " << stats.failed;
      return out.str();
    }
    return std::nullopt;
  });
  registry.add("deputy-retries-bounded", [&]() -> std::optional<std::string> {
    if (saf_raw->queued() != 0) {
      std::ostringstream out;
      out << saf_raw->queued()
          << " envelope(s) still queued in the store-and-forward deputy";
      return out.str();
    }
    return std::nullopt;
  });

  result.violations = registry.run_all();
  return result;
}

/// True when replaying `schedule` under `base` (same deployment seed) still
/// violates at least one invariant.
inline bool reproduces(const ScenarioConfig& base,
                       const pgrid::sim::Schedule& schedule) {
  ScenarioConfig replay = base;
  replay.replay = schedule;
  return !run_scenario(replay).passed();
}

/// Greedy ddmin-style schedule minimizer: repeatedly tries to remove chunks
/// (halving the chunk size down to single faults) while the violation still
/// reproduces.  Returns a schedule from which no single fault can be
/// removed without losing the failure.
inline pgrid::sim::Schedule minimize_schedule(const ScenarioConfig& base,
                                              pgrid::sim::Schedule failing) {
  std::size_t chunk = std::max<std::size_t>(1, failing.size() / 2);
  for (;;) {
    bool removed = false;
    std::size_t start = 0;
    while (start < failing.size()) {
      pgrid::sim::Schedule candidate;
      candidate.reserve(failing.size());
      for (std::size_t i = 0; i < failing.size(); ++i) {
        if (i < start || i >= start + chunk) candidate.push_back(failing[i]);
      }
      if (candidate.size() < failing.size() && reproduces(base, candidate)) {
        failing = std::move(candidate);
        removed = true;
        // Retry the same start offset: it now holds different faults.
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !removed) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
  return failing;
}

/// The settings that regenerate a scenario's schedule, as environment
/// assignments: seed, mix, fault count, sensor count and horizon.
/// replay_config reads them back.
inline std::string replay_settings(const ScenarioConfig& config) {
  std::ostringstream out;
  out << std::setprecision(17) << "PGRID_CHAOS_SEED=" << config.seed
      << " PGRID_CHAOS_MIX=" << config.mix.name
      << " PGRID_CHAOS_FAULTS=" << config.fault_count
      << " PGRID_CHAOS_SENSORS=" << config.sensor_count
      << " PGRID_CHAOS_HORIZON_S=" << config.horizon_s;
  return out.str();
}

/// Rebuilds a scenario from replay settings looked up by name (getenv in
/// ChaosReplay.ReplaySeed).  Settings left unset keep the seeded sweeps'
/// values: 10 faults over 60 s on the default deployment.
inline ScenarioConfig replay_config(
    const std::function<const char*(const char*)>& lookup) {
  ScenarioConfig config;
  config.fault_count = 10;
  config.horizon_s = 60.0;
  if (const char* seed = lookup("PGRID_CHAOS_SEED")) {
    config.seed = std::strtoull(seed, nullptr, 10);
  }
  if (const char* mix = lookup("PGRID_CHAOS_MIX")) {
    config.mix = pgrid::sim::mix_by_name(mix);
  }
  if (const char* faults = lookup("PGRID_CHAOS_FAULTS")) {
    config.fault_count =
        static_cast<std::size_t>(std::strtoull(faults, nullptr, 10));
  }
  if (const char* sensors = lookup("PGRID_CHAOS_SENSORS")) {
    config.sensor_count =
        static_cast<std::size_t>(std::strtoull(sensors, nullptr, 10));
  }
  if (const char* horizon = lookup("PGRID_CHAOS_HORIZON_S")) {
    config.horizon_s = std::strtod(horizon, nullptr);
  }
  return config;
}

/// The exact recipe a developer (or CI log reader) follows to reproduce a
/// failing scenario.
inline std::string replay_instructions(const ScenarioConfig& config,
                                       const pgrid::sim::Schedule& minimized) {
  std::ostringstream out;
  out << "chaos scenario FAILED: seed=" << config.seed << " mix="
      << config.mix.name << " faults=" << config.fault_count << "\n"
      << "replay with:\n"
      << "  " << replay_settings(config)
      << " ./test_chaos --gtest_filter='ChaosReplay.ReplaySeed'\n"
      << "minimized schedule (" << minimized.size() << " fault(s)):\n"
      << pgrid::sim::format_schedule(minimized);
  return out.str();
}

}  // namespace chaos_harness
