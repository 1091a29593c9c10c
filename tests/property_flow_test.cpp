// Property tests for the analytic flow tier (net/flow.hpp): the closed
// forms match the packet tier's actual retry loop by Monte Carlo; flow and
// packet runs of the same seeded deployment stay within the calibration
// band under mobility, churn and partition-heal; the packet fallback under
// an armed chaos engine is bit-identical to the packet-only build; plan
// caches follow the network's scoped and global topology epochs; and the
// sharded flow backhaul is invariant under the shard fold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "core/sharded.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "sim/chaos.hpp"

namespace pgrid {
namespace {

// ---------------------------------------------------------------------------
// Closed forms vs the packet tier's actual retry loop.

/// Replays Network::transmit's retry loop exactly: attempts start at 1 and
/// grow on each loss until success or attempts would exceed max_retries.
/// Returns (attempts made, delivered).
std::pair<std::size_t, bool> packet_retry_loop(common::Rng& rng, double loss,
                                               std::size_t max_retries) {
  std::size_t attempts = 1;
  while (rng.bernoulli(loss)) {
    if (attempts > max_retries) return {attempts, false};
    ++attempts;
  }
  return {attempts, true};
}

TEST(FlowClosedForms, HopSuccessMatchesTruncatedGeometric) {
  EXPECT_DOUBLE_EQ(net::FlowModel::hop_success_p(0.0, 3), 1.0);
  EXPECT_DOUBLE_EQ(net::FlowModel::hop_success_p(1.0, 3), 0.0);
  EXPECT_DOUBLE_EQ(net::FlowModel::hop_success_p(0.02, 3),
                   1.0 - std::pow(0.02, 4));
  EXPECT_DOUBLE_EQ(net::FlowModel::hop_success_p(0.5, 0), 0.5);
}

TEST(FlowClosedForms, ExpectedAttemptsMatchesEnumeration) {
  // E[min(Geometric(1-p), m+1)] by direct enumeration over attempt counts.
  for (double p : {0.02, 0.2, 0.5}) {
    for (std::size_t m : {0u, 1u, 3u, 5u}) {
      double expect = 0.0;
      for (std::size_t k = 1; k <= m; ++k) {
        expect += static_cast<double>(k) * std::pow(p, double(k - 1)) *
                  (1.0 - p);
      }
      expect += static_cast<double>(m + 1) * std::pow(p, double(m));
      EXPECT_NEAR(net::FlowModel::expected_attempts(p, m), expect, 1e-12)
          << "p=" << p << " m=" << m;
    }
  }
  EXPECT_DOUBLE_EQ(net::FlowModel::expected_attempts(0.0, 3), 1.0);
  EXPECT_DOUBLE_EQ(net::FlowModel::expected_attempts(1.0, 3), 4.0);
}

TEST(FlowClosedForms, ExpectedAttemptsMatchesPacketLoopMonteCarlo) {
  common::Rng rng(7);
  const double p = 0.2;
  const std::size_t m = 3;
  const std::size_t kTrials = 200000;
  double total = 0.0;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < kTrials; ++i) {
    const auto [attempts, ok] = packet_retry_loop(rng, p, m);
    total += static_cast<double>(attempts);
    delivered += ok ? 1 : 0;
  }
  const double mc_attempts = total / static_cast<double>(kTrials);
  const double mc_success =
      static_cast<double>(delivered) / static_cast<double>(kTrials);
  EXPECT_NEAR(net::FlowModel::expected_attempts(p, m), mc_attempts, 0.01);
  EXPECT_NEAR(net::FlowModel::hop_success_p(p, m), mc_success, 0.005);
}

TEST(FlowClosedForms, ExpectedMaxAttemptsMatchesMonteCarloAndIsMonotone) {
  common::Rng rng(11);
  const double p = 0.2;
  const std::size_t m = 3;
  for (std::size_t n : {1u, 4u, 16u}) {
    const std::size_t kTrials = 50000;
    double total = 0.0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      std::size_t level_max = 0;
      for (std::size_t i = 0; i < n; ++i) {
        level_max = std::max(level_max, packet_retry_loop(rng, p, m).first);
      }
      total += static_cast<double>(level_max);
    }
    EXPECT_NEAR(net::FlowModel::expected_max_attempts(n, p, m),
                total / static_cast<double>(kTrials), 0.02)
        << "n=" << n;
  }
  // n=1 collapses to E[attempts]; more transmitters never finish sooner.
  EXPECT_DOUBLE_EQ(net::FlowModel::expected_max_attempts(1, p, m),
                   net::FlowModel::expected_attempts(p, m));
  double prev = 0.0;
  for (std::size_t n = 1; n <= 64; n *= 2) {
    const double e = net::FlowModel::expected_max_attempts(n, p, m);
    EXPECT_GE(e, prev);
    EXPECT_LE(e, static_cast<double>(m + 1));
    prev = e;
  }
  EXPECT_DOUBLE_EQ(net::FlowModel::expected_max_attempts(0, p, m), 0.0);
}

TEST(FlowClosedForms, MemoizedAnswersEqualTheClosedForms) {
  // hop_outcome and level_max_attempts share one memo keyed by (loss_p,
  // max_retries) and, for E[max], n.  Interleave three loss classes, level
  // sizes and retry limits: every answer must equal the static closed form.
  sim::Simulator sim;
  net::Network network(sim, common::Rng(5));
  net::NodeConfig node;
  node.unlimited_energy = true;
  node.radio = net::LinkClass::sensor_radio();
  node.pos = {0.0, 0.0, 0.0};
  const net::NodeId s0 = network.add_node(node);
  node.pos = {10.0, 0.0, 0.0};
  const net::NodeId s1 = network.add_node(node);
  node.radio = net::LinkClass::wifi();
  node.pos = {1000.0, 0.0, 0.0};
  const net::NodeId h0 = network.add_node(node);
  node.pos = {1050.0, 0.0, 0.0};
  const net::NodeId h1 = network.add_node(node);
  network.add_wired_link(s0, h0);
  net::FlowModel flow(network, common::Rng(6));

  // The list ends on the class and level size it starts with, so each new
  // retry limit first meets a memo whose other inputs still match.
  const std::pair<net::NodeId, net::NodeId> hops[] = {
      {h0, h1}, {s0, s1}, {s1, s0}, {s0, h0}, {s0, s1}, {h1, h0}};
  const std::size_t sizes[] = {4, 4, 4, 1, 7, 4};
  for (std::size_t retries : {3u, 1u, 3u, 0u}) {
    network.set_max_retries(retries);
    for (std::size_t i = 0; i < std::size(hops); ++i) {
      const auto [a, b] = hops[i];
      net::FlowModel::HopOutcome hop;
      ASSERT_TRUE(flow.hop_outcome(a, b, 64, hop)) << a << " -> " << b;
      const double p = network.link_between(a, b)->loss_prob;
      EXPECT_EQ(hop.loss_p, p);
      EXPECT_EQ(hop.success_p, net::FlowModel::hop_success_p(p, retries));
      EXPECT_EQ(hop.expected_attempts,
                net::FlowModel::expected_attempts(p, retries));
      EXPECT_EQ(flow.level_max_attempts(sizes[i], p),
                net::FlowModel::expected_max_attempts(sizes[i], p, retries))
          << "n=" << sizes[i] << " p=" << p << " m=" << retries;
    }
  }
}

// ---------------------------------------------------------------------------
// Calibration: flow vs packet on the same seeded deployment, including the
// dynamics that invalidate analytic state (mobility, churn, partition-heal).

core::RuntimeConfig small_config(std::size_t sensors, bool flow) {
  core::RuntimeConfig config;
  config.seed = 42;
  config.sensors.sensor_count = sensors;
  const auto side = static_cast<double>(static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(sensors)))));
  config.sensors.width_m = 15.0 * (side - 1) + 1.0;
  config.sensors.height_m = config.sensors.width_m;
  config.sensors.base_pos = {-5.0, -5.0, 0.0};
  config.sensors.noise_std = 0.0;
  config.advertise_sensor_services = false;
  config.pool_threads = 1;
  config.flow.enabled = flow;
  return config;
}

struct PhaseTotals {
  double energy_j = 0.0;
  std::size_t reports = 0;
  std::size_t expected = 0;
};

/// One collection pair (tree epoch + all-to-base) at the current topology.
PhaseTotals collect_pair(core::PervasiveGridRuntime& rt) {
  PhaseTotals totals;
  for (int kind = 0; kind < 2; ++kind) {
    sensornet::CollectionResult round;
    auto done = [&round](sensornet::CollectionResult r) {
      round = std::move(r);
    };
    if (kind == 0) {
      rt.sensors().collect_tree_aggregate(rt.field(), done);
    } else {
      rt.sensors().collect_all_to_base(rt.field(), done);
    }
    rt.simulator().run();
    totals.energy_j += round.energy_j;
    totals.reports += round.reports;
    totals.expected += round.expected;
  }
  return totals;
}

TEST(FlowCalibration, TracksPacketOracleThroughMobilityChurnAndHeal) {
  core::PervasiveGridRuntime packet(small_config(64, false));
  core::PervasiveGridRuntime flow(small_config(64, true));
  ASSERT_NE(flow.flow_model(), nullptr);
  ASSERT_EQ(packet.flow_model(), nullptr);

  // The same dynamics, applied to both deployments in lockstep.  Each phase
  // mutates topology/liveness and then collects; per-phase totals must stay
  // inside the calibration band (energy +/-10%, success +/-2 points).
  auto phase = [&](const char* label, auto&& mutate) {
    mutate(packet);
    mutate(flow);
    const PhaseTotals po = collect_pair(packet);
    const PhaseTotals fo = collect_pair(flow);
    ASSERT_GT(po.expected, 0u) << label;
    const double p_success = static_cast<double>(po.reports) /
                             static_cast<double>(po.expected);
    const double f_success = static_cast<double>(fo.reports) /
                             static_cast<double>(fo.expected);
    EXPECT_NEAR(f_success, p_success, 0.02) << label;
    EXPECT_NEAR(fo.energy_j, po.energy_j, 0.10 * po.energy_j + 1e-9)
        << label;
  };

  phase("baseline", [](core::PervasiveGridRuntime&) {});
  phase("mobility", [](core::PervasiveGridRuntime& rt) {
    // Nudge a handful of sensors: topology version bumps, routes and flow
    // plans rebuild, connectivity stays intact (moves are small).
    const auto& ids = rt.sensors().sensors();
    for (std::size_t i = 0; i < ids.size(); i += 7) {
      auto pos = rt.network().node(ids[i]).pos;
      pos.x += 2.0;
      rt.network().move_node(ids[i], pos);
    }
  });
  phase("churn-down", [](core::PervasiveGridRuntime& rt) {
    const auto& ids = rt.sensors().sensors();
    rt.network().set_node_up(ids[3], false);
    rt.network().set_node_up(ids[11], false);
  });
  phase("churn-heal", [](core::PervasiveGridRuntime& rt) {
    const auto& ids = rt.sensors().sensors();
    rt.network().set_node_up(ids[3], true);
    rt.network().set_node_up(ids[11], true);
  });
  phase("partition", [](core::PervasiveGridRuntime& rt) {
    // A corner of the floor cut off administratively: every route through
    // the corner re-forms, the flow tier must lose exactly the same corner.
    const auto& ids = rt.sensors().sensors();
    for (std::size_t i = 0; i < 4; ++i) {
      rt.network().set_node_up(ids[ids.size() - 1 - i], false);
    }
  });
  phase("partition-heal", [](core::PervasiveGridRuntime& rt) {
    const auto& ids = rt.sensors().sensors();
    for (std::size_t i = 0; i < 4; ++i) {
      rt.network().set_node_up(ids[ids.size() - 1 - i], true);
    }
  });

  // The flow tier actually served the traffic (this was not a fallback-fest).
  const auto& stats = flow.flow_model()->stats();
  EXPECT_GT(stats.flows, 0u);
  EXPECT_GT(stats.tree_epochs, 0u);
  EXPECT_GT(stats.analytic_hops, 0u);
}

TEST(FlowCalibration, ReplayIsBitIdentical) {
  // Same config, two runs: every flow draw comes from the model's own
  // seeded stream, so outcomes replay exactly.
  auto run = [] {
    core::PervasiveGridRuntime rt(small_config(36, true));
    const PhaseTotals t = collect_pair(rt);
    return std::tuple(t.energy_j, t.reports, rt.network().stats().bytes_sent,
                      rt.flow_model()->stats().expected_attempts);
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Kill-switch identities.

struct PacketWitness {
  net::NetworkStats stats;
  PhaseTotals totals;
};

PacketWitness run_witness(core::RuntimeConfig config, bool with_chaos) {
  core::PervasiveGridRuntime rt(std::move(config));
  std::unique_ptr<sim::ChaosEngine> chaos;
  if (with_chaos) {
    chaos = std::make_unique<sim::ChaosEngine>(rt.network(),
                                               rt.config().seed);
    sim::ChaosConfig cfg;
    cfg.horizon = sim::SimTime::seconds(10.0);
    cfg.fault_count = 6;
    chaos->arm(cfg);
  }
  PacketWitness w;
  w.totals = collect_pair(rt);
  w.stats = rt.network().stats();
  return w;
}

void expect_identical(const PacketWitness& a, const PacketWitness& b,
                      const char* label) {
  EXPECT_EQ(a.stats.transmissions, b.stats.transmissions) << label;
  EXPECT_EQ(a.stats.delivered, b.stats.delivered) << label;
  EXPECT_EQ(a.stats.dropped, b.stats.dropped) << label;
  EXPECT_EQ(a.stats.bytes_sent, b.stats.bytes_sent) << label;
  EXPECT_EQ(a.stats.energy_j, b.stats.energy_j) << label;
  EXPECT_EQ(a.totals.energy_j, b.totals.energy_j) << label;
  EXPECT_EQ(a.totals.reports, b.totals.reports) << label;
}

TEST(FlowKillSwitch, ArmedChaosForcesPacketBitIdentically) {
  // An installed FaultInjector forces the deployment to packet fidelity:
  // the flow-enabled run under chaos must be
  // bit-identical to the disabled run under the identical chaos schedule.
  const auto disabled = run_witness(small_config(49, false), true);
  const auto flowing = run_witness(small_config(49, true), true);
  expect_identical(disabled, flowing, "chaos fallback vs disabled");
}

TEST(FlowKillSwitch, FallbacksAreCounted) {
  core::PervasiveGridRuntime rt(small_config(25, true));
  // Construction traffic (the agent registration envelope) may already have
  // flowed; from here on the armed engine must force everything to packet.
  const net::FlowStats base = rt.flow_model()->stats();
  sim::ChaosEngine chaos(rt.network(), 1);
  sim::ChaosConfig cfg;
  cfg.fault_count = 1;
  chaos.arm(cfg);
  collect_pair(rt);
  const auto& stats = rt.flow_model()->stats();
  EXPECT_EQ(stats.flows, base.flows);
  EXPECT_EQ(stats.tree_epochs, base.tree_epochs);
  EXPECT_GT(stats.packet_fallbacks, base.packet_fallbacks);
}

// ---------------------------------------------------------------------------
// Fidelity selection mechanics.

TEST(FlowFidelity, ReliableRuntimeNeverReachesTheFlowTier) {
  // With a ReliableChannel installed every sender (TAG, reads, clusters,
  // the agent platform) takes the channel's packet-level branch, so the
  // flow tier has nothing left to serve — which is why the channel holds
  // no per-link packet-fidelity marks.  Pinned across every collection
  // model and an agent round trip: after construction the flow counters
  // never move.
  core::RuntimeConfig config = small_config(25, true);
  config.reliability.enabled = true;
  core::PervasiveGridRuntime rt(config);
  ASSERT_NE(rt.flow_model(), nullptr);
  ASSERT_NE(rt.reliable_channel(), nullptr);
  const net::FlowStats base = rt.flow_model()->stats();
  const auto& ids = rt.sensors().sensors();
  EXPECT_TRUE(rt.flow_model()->hop_eligible(ids[0], ids[1]))
      << "without an armed injector every hop is flow-eligible";

  collect_pair(rt);
  for (const auto model : {partition::SolutionModel::kAllToBase,
                           partition::SolutionModel::kClusterAggregate,
                           partition::SolutionModel::kTreeAggregate,
                           partition::SolutionModel::kGridOffload}) {
    const auto outcome =
        rt.submit_and_run("SELECT AVG(temp) FROM sensors", model);
    EXPECT_TRUE(outcome.ok) << partition::to_string(model);
  }
  rt.simulator().run();

  const net::FlowStats& after = rt.flow_model()->stats();
  EXPECT_EQ(after.flows, base.flows);
  EXPECT_EQ(after.tree_epochs, base.tree_epochs);
  EXPECT_EQ(after.packet_fallbacks, base.packet_fallbacks);
  EXPECT_GT(rt.reliable_channel()->stats().delivered, 0u);
  EXPECT_EQ(rt.reliable_channel()->in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Plan cache: the RouteCache version discipline, exactly.

TEST(FlowPlans, CacheHitsAndVersionInvalidation) {
  // 20x20 sensors at 15 m: wide enough that one node's spatial gather
  // block is well under half the deployment, so single changes apply as
  // scoped topology epochs rather than widening to a rebuild.
  core::PervasiveGridRuntime rt(small_config(400, true));
  net::FlowModel& flow = *rt.flow_model();
  const auto& sensors = rt.sensors().sensors();
  const auto route = rt.sensors().tree().route_to_sink(sensors.back());
  ASSERT_GE(route.size(), 2u);
  // A one-hop route at the sink's corner, far from route[0].
  const auto near = rt.sensors().tree().route_to_sink(sensors.front());
  ASSERT_EQ(near.size(), 2u);

  // Construction traffic already planned one flow (the grid solver's
  // advertisement, grid machine -> base station over the backhaul), so
  // every expectation below is a delta from this baseline.  Construction
  // ends with reset_energy() and no dead battery, which opens no epoch, so
  // that plan stays cached and rides through the epochs below.
  const net::FlowStats base = flow.stats();
  ASSERT_EQ(base.plan_misses, 1u);
  ASSERT_EQ(base.plan_invalidations, 0u);
  flow.send_flow(route, 32, [](bool, std::size_t) {});
  flow.send_flow(near, 32, [](bool, std::size_t) {});
  rt.simulator().run();
  EXPECT_EQ(flow.stats().plan_misses, base.plan_misses + 2);
  flow.send_flow(route, 32, [](bool, std::size_t) {});
  rt.simulator().run();
  EXPECT_EQ(flow.stats().plan_hits, base.plan_hits + 1);

  // Mobility with the snapshot current (any route lookup keeps it so in a
  // running deployment) is a scoped epoch: the plan through the moved
  // node is dropped and re-planned; the far-away plan and the backhaul
  // plan from construction survive, and the far-away one hits.
  rt.network().topology_snapshot();
  const net::FlowStats settled = flow.stats();
  auto pos = rt.network().node(route[0]).pos;
  pos.x += 1.0;
  rt.network().move_node(route[0], pos);
  flow.send_flow(route, 32, [](bool, std::size_t) {});
  flow.send_flow(near, 32, [](bool, std::size_t) {});
  rt.simulator().run();
  EXPECT_EQ(flow.stats().plan_scoped_epochs, settled.plan_scoped_epochs + 1);
  EXPECT_EQ(flow.stats().plans_dropped, settled.plans_dropped + 1);
  EXPECT_EQ(flow.stats().plans_kept, settled.plans_kept + 2);
  EXPECT_EQ(flow.stats().plan_misses, settled.plan_misses + 1);
  EXPECT_EQ(flow.stats().plan_hits, settled.plan_hits + 1);
  EXPECT_EQ(flow.stats().plan_invalidations, settled.plan_invalidations);

  // Battery death next to the sink moves the liveness version without
  // touching topology; still scoped (the patched snapshot stays current),
  // and all three plans end at the sink inside the dirty block.
  const net::NodeId victim = sensors[1];
  const auto before = rt.network().liveness_version();
  rt.network().drain_energy(victim, 1e9);
  ASSERT_GT(rt.network().liveness_version(), before);
  flow.send_flow(route, 32, [](bool, std::size_t) {});
  rt.simulator().run();
  EXPECT_EQ(flow.stats().plan_scoped_epochs, settled.plan_scoped_epochs + 2);
  EXPECT_EQ(flow.stats().plans_dropped, settled.plans_dropped + 4);
  EXPECT_EQ(flow.stats().plan_invalidations, settled.plan_invalidations);

  // An explicit bump is a global epoch: the cache clears wholesale.
  rt.network().bump_topology_version();
  flow.send_flow(route, 32, [](bool, std::size_t) {});
  rt.simulator().run();
  EXPECT_EQ(flow.stats().plan_scoped_epochs, settled.plan_scoped_epochs + 2);
  EXPECT_EQ(flow.stats().plan_invalidations, settled.plan_invalidations + 1);
}

TEST(FlowPlans, ConstructionSnapshotServesTheFirstQuery) {
  // Construction builds the snapshot once (the first advertisement route
  // needs it) and ends with reset_energy() on a deployment with no dead
  // battery, which opens no epoch: the first query runs on that snapshot.
  // Oracle: a twin that forces a global epoch right after construction
  // rebuilds everything and must answer identically.
  core::PervasiveGridRuntime kept(small_config(100, true));
  core::PervasiveGridRuntime rebuilt(small_config(100, true));
  EXPECT_EQ(kept.network().topology_stats().snapshot_builds, 1u);
  EXPECT_EQ(kept.network().dead_node_count(), 0u);
  rebuilt.network().bump_topology_version();

  for (const char* text :
       {"SELECT AVG(temp) FROM sensors", "SELECT MAX(temp) FROM sensors",
        "SELECT temp FROM sensors WHERE sensor = 57"}) {
    const auto a = kept.submit_and_run(text);
    const auto b = rebuilt.submit_and_run(text);
    ASSERT_TRUE(a.ok) << text << ": " << a.error;
    EXPECT_EQ(a.ok, b.ok) << text;
    EXPECT_EQ(a.model, b.model) << text;
    EXPECT_EQ(a.actual.value, b.actual.value) << text;
    EXPECT_EQ(a.actual.energy_j, b.actual.energy_j) << text;
    EXPECT_EQ(a.actual.data_bytes, b.actual.data_bytes) << text;
    EXPECT_EQ(a.actual.coverage, b.actual.coverage) << text;
    EXPECT_EQ(a.handheld_response_s, b.handheld_response_s) << text;
  }
  EXPECT_EQ(kept.network().topology_stats().snapshot_builds, 1u)
      << "the construction snapshot must serve the run";
  EXPECT_EQ(rebuilt.network().topology_stats().snapshot_builds, 2u);
  const auto& ka = kept.network().stats();
  const auto& kb = rebuilt.network().stats();
  EXPECT_EQ(ka.transmissions, kb.transmissions);
  EXPECT_EQ(ka.bytes_sent, kb.bytes_sent);
  EXPECT_EQ(ka.energy_j, kb.energy_j);
  EXPECT_EQ(kept.flow_model()->stats().expected_attempts,
            rebuilt.flow_model()->stats().expected_attempts);
  EXPECT_EQ(kept.simulator().now().us, rebuilt.simulator().now().us);
}

TEST(FlowPlans, BrokenRouteFailsAtTheBrokenHopWithoutCharge) {
  core::PervasiveGridRuntime rt(small_config(36, true));
  net::FlowModel& flow = *rt.flow_model();
  const auto route = rt.sensors().tree().route_to_sink(
      rt.sensors().sensors().back());
  ASSERT_GE(route.size(), 3u) << "need an interior hop to break";

  rt.network().set_node_up(route[1], false);
  const double energy_before = rt.network().stats().energy_j;
  bool delivered = true;
  std::size_t completed = 999;
  ASSERT_TRUE(flow.route_eligible(route))
      << "eligibility is about fidelity, not liveness";
  flow.send_flow(route, 32, [&](bool ok, std::size_t hops) {
    delivered = ok;
    completed = hops;
  });
  rt.simulator().run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(completed, 0u) << "first hop targets the downed node";
  EXPECT_EQ(flow.stats().failed, 1u);
  EXPECT_EQ(rt.network().stats().energy_j, energy_before)
      << "no hop was serviceable, so nothing may be charged";
}

// ---------------------------------------------------------------------------
// Sharded flow backhaul: barrier-exchange completions, shard-fold invariant.

core::ShardedDeploymentConfig city_config(std::size_t regions,
                                          std::size_t shards, bool flow) {
  core::ShardedDeploymentConfig config;
  config.base = small_config(16, flow);
  config.base.sharding.shards = shards;
  config.base.sharding.window = sim::SimTime::milliseconds(5);
  config.regions = regions;
  config.region_spacing_m = 400.0;
  return config;
}

struct BackhaulWitness {
  std::vector<net::NetworkStats> stats;
  core::QueryOutcome remote;
  bool transfer_ok = false;
  std::uint64_t digest = 0;
};

BackhaulWitness run_backhaul(std::size_t shards) {
  core::ShardedDeployment dep(city_config(2, shards, true));
  BackhaulWitness w;
  dep.submit_remote(0, 1, sim::SimTime::milliseconds(1),
                    "SELECT AVG(temp) FROM sensors",
                    [&w](core::QueryOutcome o) { w.remote = std::move(o); });
  dep.transfer_remote(1, 0, sim::SimTime::milliseconds(2), 4096,
                      [&w](bool ok) { w.transfer_ok = ok; });
  dep.run();
  for (std::size_t r = 0; r < 2; ++r) {
    w.stats.push_back(dep.region(r).network().stats());
  }
  w.digest = dep.order_digest();
  return w;
}

TEST(ShardedFlow, BackhaulFlowsAreCountedOncePerTransfer) {
  const auto w = run_backhaul(1);
  ASSERT_TRUE(w.remote.ok) << w.remote.error;
  EXPECT_TRUE(w.transfer_ok);
  // Region 0 sent the forwarded query, region 1 sent the bulk transfer:
  // exactly one cross-region completion booked at each sender (regions are
  // 400 m apart, so no radio frame ever crosses the boundary).
  EXPECT_EQ(w.stats[0].cross_region_frames, 1u);
  EXPECT_EQ(w.stats[1].cross_region_frames, 1u);
}

TEST(ShardedFlow, BackhaulInvariantUnderShardFold) {
  const auto one = run_backhaul(1);
  const auto two = run_backhaul(2);
  ASSERT_TRUE(one.remote.ok);
  ASSERT_TRUE(two.remote.ok);
  EXPECT_EQ(one.remote.actual.value, two.remote.actual.value);
  EXPECT_EQ(one.remote.actual.energy_j, two.remote.actual.energy_j);
  EXPECT_EQ(one.transfer_ok, two.transfer_ok);
  EXPECT_EQ(one.digest, two.digest);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(one.stats[r].transmissions, two.stats[r].transmissions);
    EXPECT_EQ(one.stats[r].bytes_sent, two.stats[r].bytes_sent);
    EXPECT_EQ(one.stats[r].energy_j, two.stats[r].energy_j);
    EXPECT_EQ(one.stats[r].cross_region_frames,
              two.stats[r].cross_region_frames);
  }
}

TEST(ShardedFlow, SubmitRemoteKillSwitchKeepsLegacyTimeline) {
  // Flow disabled: submit_remote must reproduce the PR 6 timeline — no
  // cross-region bookkeeping, arrival exactly backhaul_latency later.
  core::ShardedDeployment dep(city_config(2, 1, false));
  core::QueryOutcome remote;
  dep.submit_remote(0, 1, sim::SimTime::milliseconds(1),
                    "SELECT AVG(temp) FROM sensors",
                    [&remote](core::QueryOutcome o) { remote = std::move(o); });
  dep.run();
  ASSERT_TRUE(remote.ok) << remote.error;
  EXPECT_EQ(dep.region(0).network().stats().cross_region_frames, 0u);
}

}  // namespace
}  // namespace pgrid
