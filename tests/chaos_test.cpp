// Chaos engine + invariant harness tests: deterministic schedule
// generation, fault semantics at the network layer, the seeded sweep the
// ci chaos-smoke step runs, and the forced-violation pipeline (violation ->
// printed seed -> minimized schedule -> replay).
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "chaos_harness.hpp"
#include "net/network.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pgrid;

// ---- Schedule generation --------------------------------------------------

class ChaosScheduleTest : public ::testing::Test {
 protected:
  ChaosScheduleTest() : network_(sim_, common::Rng(7)) {
    for (int i = 0; i < 8; ++i) {
      net::NodeConfig cfg;
      cfg.pos = {10.0 * i, 0.0, 0.0};
      network_.add_node(cfg);
    }
  }

  sim::Simulator sim_;
  net::Network network_;
};

TEST_F(ChaosScheduleTest, SameSeedSameSchedule) {
  sim::ChaosConfig config;
  config.fault_count = 20;
  const auto a = sim::generate_schedule(network_, config, 99);
  const auto b = sim::generate_schedule(network_, config, 99);
  ASSERT_EQ(a.size(), 20u);
  EXPECT_EQ(a, b);
}

TEST_F(ChaosScheduleTest, DifferentSeedDifferentSchedule) {
  sim::ChaosConfig config;
  config.fault_count = 20;
  const auto a = sim::generate_schedule(network_, config, 99);
  const auto b = sim::generate_schedule(network_, config, 100);
  EXPECT_NE(a, b);
}

TEST_F(ChaosScheduleTest, SortedAndExpiresByHorizon) {
  sim::ChaosConfig config;
  config.fault_count = 40;
  config.mix = sim::ChaosMix::partition_storm();
  const auto schedule = sim::generate_schedule(network_, config, 5);
  ASSERT_EQ(schedule.size(), 40u);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(schedule[i - 1].at, schedule[i].at);
    }
    EXPECT_LE(schedule[i].at + schedule[i].duration, config.horizon)
        << sim::format_fault(schedule[i]);
  }
}

TEST_F(ChaosScheduleTest, PartitionGroupsLeaveBothSidesNonEmpty) {
  sim::ChaosConfig config;
  config.fault_count = 60;
  config.mix = sim::ChaosMix::partition_storm();
  const auto schedule = sim::generate_schedule(network_, config, 11);
  bool saw_partition = false;
  for (const auto& fault : schedule) {
    if (fault.kind != sim::FaultKind::kPartition) continue;
    saw_partition = true;
    EXPECT_GE(fault.group.size(), 1u);
    EXPECT_LT(fault.group.size(), network_.size());
  }
  EXPECT_TRUE(saw_partition);
}

TEST(ChaosMixTest, CannedMixLookup) {
  EXPECT_EQ(sim::mix_by_name("lossy-mesh").name, "lossy-mesh");
  EXPECT_EQ(sim::canned_mixes().size(), 3u);
  EXPECT_THROW(sim::mix_by_name("no-such-mix"), std::out_of_range);
}

// ---- Engine fault semantics ----------------------------------------------

// Line topology a(0) - b(20) - c(40); sensor radio reaches 25 m, so a<->c
// only communicate through b.
class ChaosEngineTest : public ::testing::Test {
 protected:
  ChaosEngineTest() : network_(sim_, common::Rng(21)) {
    for (int i = 0; i < 3; ++i) {
      net::NodeConfig cfg;
      cfg.pos = {20.0 * i, 0.0, 0.0};
      network_.add_node(cfg);
    }
  }

  static sim::Fault make_fault(sim::FaultKind kind, double at_s,
                               double duration_s, net::NodeId node,
                               double magnitude = 0.0) {
    sim::Fault fault;
    fault.kind = kind;
    fault.at = sim::SimTime::seconds(at_s);
    fault.duration = sim::SimTime::seconds(duration_s);
    fault.node = node;
    fault.magnitude = magnitude;
    return fault;
  }

  sim::Simulator sim_;
  net::Network network_;
};

TEST_F(ChaosEngineTest, BlackoutSeversAndHeals) {
  sim::ChaosEngine engine(network_, 1);
  engine.arm_schedule({make_fault(sim::FaultKind::kBlackout, 1.0, 2.0, 1)});
  EXPECT_TRUE(network_.connected(0, 1));
  sim_.run_until(sim::SimTime::seconds(2.0));  // mid-window
  EXPECT_FALSE(network_.connected(0, 1));
  EXPECT_FALSE(network_.connected(1, 2));
  EXPECT_TRUE(network_.link_between(0, 1) == std::nullopt);
  EXPECT_EQ(engine.active_count(), 1u);
  sim_.run();
  EXPECT_TRUE(network_.connected(0, 1));
  EXPECT_TRUE(engine.quiescent());
  EXPECT_EQ(engine.injected().size(), 1u);
}

TEST_F(ChaosEngineTest, PartitionSeversExactlyAcrossTheCut) {
  sim::ChaosEngine engine(network_, 1);
  auto fault = make_fault(sim::FaultKind::kPartition, 1.0, 2.0, 0);
  fault.group = {0, 1};
  const std::uint64_t version_before = network_.topology_version();
  engine.arm_schedule({fault});
  sim_.run_until(sim::SimTime::seconds(2.0));
  EXPECT_TRUE(network_.connected(0, 1));   // same side
  EXPECT_FALSE(network_.connected(1, 2));  // across the cut
  EXPECT_GT(network_.topology_version(), version_before);
  sim_.run();
  EXPECT_TRUE(network_.connected(1, 2));
}

TEST_F(ChaosEngineTest, CrashRestartFiresTransitionsAndDrainsBattery) {
  sim::ChaosEngine engine(network_, 1);
  std::vector<std::pair<net::NodeId, bool>> transitions;
  engine.set_transition_callback([&](net::NodeId id, bool up) {
    transitions.emplace_back(id, up);
  });
  engine.arm_schedule(
      {make_fault(sim::FaultKind::kCrash, 1.0, 2.0, 1, 0.005)});
  sim_.run_until(sim::SimTime::seconds(2.0));
  EXPECT_FALSE(network_.alive(1));
  const double consumed_mid = network_.node(1).energy.consumed();
  sim_.run();
  EXPECT_TRUE(network_.alive(1));
  // Reboot state loss drained the configured joules.
  EXPECT_NEAR(network_.node(1).energy.consumed(), consumed_mid + 0.005, 1e-12);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], (std::pair<net::NodeId, bool>{1, false}));
  EXPECT_EQ(transitions[1], (std::pair<net::NodeId, bool>{1, true}));
}

TEST_F(ChaosEngineTest, DropWindowFailsTransmitsInsideWindowOnly) {
  sim::ChaosEngine engine(network_, 1);
  engine.arm_schedule(
      {make_fault(sim::FaultKind::kDrop, 0.0, 1.0, net::kInvalidNode, 1.0)});
  int delivered = -1;
  sim_.schedule(sim::SimTime::seconds(0.5), [&] {  // mid-window
    network_.transmit(0, 1, 64, [&](bool ok) { delivered = ok ? 1 : 0; });
  });
  sim_.run_until(sim::SimTime::seconds(0.9));
  EXPECT_EQ(delivered, 0);  // mag-1.0 drop window: payload always lost
  EXPECT_GT(network_.stats().dropped, 0u);
  int after = -1;
  sim_.schedule(sim::SimTime::seconds(1.5), [&] {  // window expired
    network_.transmit(0, 1, 64, [&](bool ok) { after = ok ? 1 : 0; });
  });
  sim_.run();
  EXPECT_EQ(after, 1);
}

TEST_F(ChaosEngineTest, DuplicateWindowDeliversTwiceAndCounts) {
  sim::ChaosEngine engine(network_, 1);
  engine.arm_schedule({make_fault(sim::FaultKind::kDuplicate, 0.0, 5.0,
                                  net::kInvalidNode, 1.0)});
  int calls = 0;
  sim_.schedule(sim::SimTime::seconds(1.0), [&] {  // mid-window
    network_.transmit(0, 1, 64, [&](bool) { ++calls; });
  });
  sim_.run();
  EXPECT_EQ(calls, 1);  // callback still fires once
  EXPECT_EQ(network_.stats().duplicated, 1u);
  // The duplicate burned receiver energy and an extra attempt.
  EXPECT_GE(network_.stats().transmissions, 2u);
}

TEST_F(ChaosEngineTest, ClockSkewOffsetsReportedTime) {
  sim::ChaosEngine engine(network_, 1);
  engine.arm_schedule(
      {make_fault(sim::FaultKind::kClockSkew, 1.0, 2.0, 2, -1.5)});
  sim_.run_until(sim::SimTime::seconds(2.0));
  EXPECT_DOUBLE_EQ(engine.clock_skew_s(2), -1.5);
  EXPECT_DOUBLE_EQ(engine.clock_skew_s(0), 0.0);
  EXPECT_DOUBLE_EQ(engine.report_time(2).to_seconds(), 0.5);
  sim_.run();
  EXPECT_DOUBLE_EQ(engine.clock_skew_s(2), 0.0);
}

TEST_F(ChaosEngineTest, FaultsChargeTheLedgerUnderTheirOwnTrace) {
  sim::ChaosEngine engine(network_, 1);
  engine.arm_schedule({make_fault(sim::FaultKind::kBlackout, 1.0, 2.0, 1),
                       make_fault(sim::FaultKind::kCrash, 2.0, 1.0, 2, 0.001)});
  sim_.run();
  ASSERT_EQ(engine.injected().size(), 2u);
  const auto& ledger = network_.telemetry();
  EXPECT_EQ(ledger.totals()[telemetry::Subsystem::kChaos].count, 2u);
  for (const auto& injected : engine.injected()) {
    EXPECT_NE(injected.trace, telemetry::kNoTrace);
    const auto row = ledger.trace(injected.trace);
    EXPECT_EQ(row[telemetry::Subsystem::kChaos].count, 1u);
  }
  EXPECT_FALSE(sim::check_ledger_conservation(ledger).has_value());
}

TEST_F(ChaosEngineTest, DetachesOnDestruction) {
  {
    sim::ChaosEngine engine(network_, 1);
    engine.arm_schedule({make_fault(sim::FaultKind::kBlackout, 1.0, 5.0, 1)});
    EXPECT_EQ(network_.fault_injector(), &engine);
    EXPECT_GT(sim_.pending(), 0u);
  }
  EXPECT_EQ(network_.fault_injector(), nullptr);
  EXPECT_EQ(sim_.pending(), 0u);  // armed events cancelled
  EXPECT_TRUE(network_.connected(0, 1));
}

// ---- Invariant registry ---------------------------------------------------

TEST(InvariantRegistryTest, ReportsEveryFailingCheckWithDetail) {
  sim::InvariantRegistry registry;
  registry.add("always-holds", [] { return std::nullopt; });
  registry.add("always-fails", [] {
    return std::optional<std::string>("observed 2, expected 1");
  });
  EXPECT_EQ(registry.size(), 2u);
  const auto violations = registry.run_all();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "always-fails");
  EXPECT_EQ(violations[0].detail, "observed 2, expected 1");
}

TEST(InvariantRegistryTest, KernelProbeLeavesQueueUntouched) {
  sim::Simulator sim;
  const auto handle = sim.schedule(sim::SimTime::seconds(1.0), [] {});
  EXPECT_FALSE(sim::check_kernel_pending_exact(sim).has_value());
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(handle));
}

TEST_F(ChaosEngineTest, TopologyCachesFreshThroughFaultsAndFlagsRevalidation) {
  // Warm the caches, cut a link with a blackout, move a node: the patched
  // snapshot must track the naive scan at every step.
  ASSERT_EQ(net::cached_shortest_path(network_, 0, 2).size(), 3u);
  EXPECT_FALSE(sim::check_topology_caches_fresh(network_).has_value());
  sim::ChaosEngine engine(network_, 1);
  engine.arm_schedule({make_fault(sim::FaultKind::kBlackout, 1.0, 5.0, 1)});
  sim_.run_until(sim::SimTime::seconds(2.0));
  EXPECT_FALSE(sim::check_topology_caches_fresh(network_).has_value());
  network_.move_node(2, {30.0, 0.0, 0.0});
  EXPECT_FALSE(sim::check_topology_caches_fresh(network_).has_value());
  // A revalidation failure means a stale route survived an epoch.
  network_.route_cache().note_revalidation_failure();
  const auto detail = sim::check_topology_caches_fresh(network_);
  ASSERT_TRUE(detail.has_value());
  EXPECT_NE(detail->find("revalidation"), std::string::npos);
}

// ---- Seeded sweeps (the ci chaos-smoke workload) -------------------------

std::size_t seeds_per_mix() {
  if (const char* env = std::getenv("PGRID_CHAOS_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 17;  // 3 mixes x 17 = 51 scenarios by default
}

void sweep_mix(const sim::ChaosMix& mix) {
  const std::size_t seeds = seeds_per_mix();
  for (std::size_t i = 0; i < seeds; ++i) {
    chaos_harness::ScenarioConfig config;
    config.seed = 1000 + i * 7919;  // spread seeds; deterministic
    config.mix = mix;
    config.fault_count = 10;
    config.horizon_s = 60.0;
    const auto result = chaos_harness::run_scenario(config);
    if (!result.passed()) {
      const auto minimized =
          chaos_harness::minimize_schedule(config, result.schedule);
      ADD_FAILURE() << result.violation_text()
                    << chaos_harness::replay_instructions(config, minimized);
      return;  // one reproduction per sweep is enough signal
    }
    // Every query terminated (ok or failed — chaos may legitimately fail
    // queries, but none may hang).
    EXPECT_EQ(result.queries_ok + result.queries_failed, 4u);
    EXPECT_EQ(result.faults_injected, result.schedule.size());
  }
}

TEST(ChaosSweep, DisconnectionHeavy) {
  sweep_mix(sim::ChaosMix::disconnection_heavy());
}

TEST(ChaosSweep, LossyMesh) { sweep_mix(sim::ChaosMix::lossy_mesh()); }

TEST(ChaosSweep, PartitionStorm) {
  sweep_mix(sim::ChaosMix::partition_storm());
}

// ---- Forced violation: seed -> minimize -> replay -------------------------

TEST(ChaosForcedViolation, ReproducesFromSeedAndMinimizedSchedule) {
  chaos_harness::ScenarioConfig base;
  base.seed = 4242;
  base.mix = sim::ChaosMix::disconnection_heavy();
  base.fault_count = 12;
  base.horizon_s = 60.0;
  // Test-only sabotage: the first crash fault corrupts the harness's
  // exactly-once bookkeeping, standing in for a real double-completion bug.
  base.sabotage = [](const sim::Fault& fault) {
    return fault.kind == sim::FaultKind::kCrash;
  };

  const auto result = chaos_harness::run_scenario(base);
  ASSERT_FALSE(result.passed()) << "sabotage should trip an invariant";
  bool saw_exactly_once = false;
  for (const auto& v : result.violations) {
    if (v.invariant == "query-exactly-once") saw_exactly_once = true;
  }
  EXPECT_TRUE(saw_exactly_once) << result.violation_text();

  // The greedy minimizer strips every fault that is not needed to
  // reproduce; only the sabotage trigger (a single crash) should survive.
  const auto minimized =
      chaos_harness::minimize_schedule(base, result.schedule);
  ASSERT_EQ(minimized.size(), 1u)
      << sim::format_schedule(minimized);
  EXPECT_EQ(minimized[0].kind, sim::FaultKind::kCrash);
  EXPECT_TRUE(chaos_harness::reproduces(base, minimized));

  // Replaying from the printed seed alone (fresh config, schedule
  // regenerated) reproduces the same violation...
  chaos_harness::ScenarioConfig from_seed = base;
  const auto replayed = chaos_harness::run_scenario(from_seed);
  ASSERT_FALSE(replayed.passed());
  EXPECT_EQ(replayed.schedule, result.schedule);

  // ...and the instructions name the seed and the minimized schedule.
  const auto instructions =
      chaos_harness::replay_instructions(base, minimized);
  EXPECT_NE(instructions.find("seed=4242"), std::string::npos);
  EXPECT_NE(instructions.find("crash"), std::string::npos);
}

// ---- Replay entry point (driven by the printed instructions) -------------

TEST(ChaosReplay, ReplaySeed) {
  const char* seed_env = std::getenv("PGRID_CHAOS_SEED");
  if (!seed_env) {
    GTEST_SKIP() << "set PGRID_CHAOS_SEED (and optionally PGRID_CHAOS_MIX, "
                    "PGRID_CHAOS_FAULTS) to replay a failing scenario";
  }
  chaos_harness::ScenarioConfig config;
  config.seed = std::strtoull(seed_env, nullptr, 10);
  if (const char* mix_env = std::getenv("PGRID_CHAOS_MIX")) {
    config.mix = sim::mix_by_name(mix_env);
  }
  if (const char* faults_env = std::getenv("PGRID_CHAOS_FAULTS")) {
    config.fault_count =
        static_cast<std::size_t>(std::strtoul(faults_env, nullptr, 10));
  }
  config.horizon_s = 60.0;
  const auto result = chaos_harness::run_scenario(config);
  EXPECT_TRUE(result.passed())
      << result.violation_text() << "schedule:\n"
      << sim::format_schedule(result.schedule);
}

}  // namespace
