// Property tests for incremental topology epochs (DESIGN.md S26):
// delta-patched CSR snapshots and scope-invalidated route caches must stay
// bit-identical to the fresh-full-rebuild oracle under seeded mobility,
// churn, battery death, partition-heal and full chaos — and the whole
// discipline must be outcome-identical to forcing a global epoch on every
// change, on the same seeds.  Local route repair
// (ReliableConfig::repair_depth) rides along with its own splice tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "net/churn.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "net/routing.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"
#include "sim/simulator.hpp"

namespace pgrid::net {
namespace {

/// Fully independent route oracle: Dijkstra with cost = (hops, distance)
/// re-implemented over the naive neighbour scan, sharing no code with
/// routing.cpp or the epoch machinery.
std::vector<NodeId> oracle_route(const Network& net, NodeId src, NodeId dst) {
  const std::size_t n = net.size();
  if (src >= n || dst >= n || !net.alive(src) || !net.alive(dst)) return {};
  if (src == dst) return {src};
  constexpr std::size_t kFar = std::numeric_limits<std::size_t>::max();
  using Cost = std::pair<std::size_t, double>;
  std::vector<Cost> best(n, {kFar, 0.0});
  std::vector<NodeId> prev(n, kInvalidNode);
  using Entry = std::pair<Cost, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  best[src] = {0, 0.0};
  pq.push({{0, 0.0}, src});
  while (!pq.empty()) {
    auto [cost, at] = pq.top();
    pq.pop();
    if (cost > best[at]) continue;
    if (at == dst) break;
    for (NodeId next : net.neighbors_naive(at)) {
      const double d = distance(net.node(at).pos, net.node(next).pos);
      Cost candidate{cost.first + 1, cost.second + d};
      if (candidate < best[next]) {
        best[next] = candidate;
        prev[next] = at;
        pq.push({candidate, next});
      }
    }
  }
  if (best[dst].first == kFar) return {};
  std::vector<NodeId> route;
  for (NodeId at = dst; at != kInvalidNode; at = prev[at]) {
    route.push_back(at);
    if (at == src) break;
  }
  std::reverse(route.begin(), route.end());
  if (route.front() != src) return {};
  return route;
}

/// Asserts that the (possibly delta-patched) snapshot rows, hop distances
/// and cached routes are all bit-identical to their fresh oracles right now.
void expect_epoch_matches_oracle(const Network& net, common::Rng& pairs,
                                 std::size_t route_probes) {
  const auto& snapshot = net.topology_snapshot();
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto naive = net.neighbors_naive(id);
    const auto row = snapshot.row(id);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), naive.begin(),
                           naive.end()))
        << "patched snapshot row diverged at node " << id;
    const auto dist = snapshot.row_distance(id);
    for (std::size_t k = 0; k < naive.size(); ++k) {
      ASSERT_EQ(dist[k], distance(net.node(id).pos, net.node(naive[k]).pos))
          << "patched hop distance diverged at node " << id;
    }
  }
  for (std::size_t probe = 0; probe < route_probes; ++probe) {
    const auto src = static_cast<NodeId>(pairs.index(net.size()));
    const auto dst = static_cast<NodeId>(pairs.index(net.size()));
    const auto expected = oracle_route(net, src, dst);
    // Twice: the first call may compute-and-fill or revalidate a scoped
    // survivor, the second must hit — both bit-identical to the oracle.
    ASSERT_EQ(cached_shortest_path(net, src, dst), expected)
        << "cached route diverged for " << src << " -> " << dst;
    ASSERT_EQ(cached_shortest_path(net, src, dst), expected)
        << "warm cached route diverged for " << src << " -> " << dst;
  }
}

struct EpochCase {
  std::uint64_t seed;
  std::size_t nodes;
  bool grid_placement;
};

/// Same mixed deployment as the topology property fixture (sensors + wifi
/// base + wired backhaul pair).
class EpochProperty : public ::testing::TestWithParam<EpochCase> {
 protected:
  EpochProperty() : net_(sim_, common::Rng(GetParam().seed)) {
    NodeConfig config;
    config.kind = NodeKind::kSensor;
    config.radio = LinkClass::sensor_radio();
    config.battery_j = 0.05;  // small budget: some nodes die mid-run
    common::Rng placement(GetParam().seed ^ 0xabcdef);
    side_ = 15.0 * std::ceil(std::sqrt(double(GetParam().nodes)));
    if (GetParam().grid_placement) {
      ids_ = deploy_grid(net_, GetParam().nodes, side_, side_, config);
    } else {
      ids_ = deploy_random(net_, GetParam().nodes, side_, side_, config,
                           placement);
    }
    NodeConfig base;
    base.kind = NodeKind::kBaseStation;
    base.radio = LinkClass::wifi();
    base.pos = {-5.0, -5.0, 0.0};
    base.unlimited_energy = true;
    base_ = net_.add_node(base);
    NodeConfig grid_machine;
    grid_machine.kind = NodeKind::kGrid;
    grid_machine.radio = LinkClass::wired();
    grid_machine.pos = {-20.0, -20.0, 0.0};
    grid_machine.unlimited_energy = true;
    grid_ = net_.add_node(grid_machine);
    net_.add_wired_link(base_, grid_);
  }

  sim::Simulator sim_;
  Network net_;
  std::vector<NodeId> ids_;
  NodeId base_ = kInvalidNode;
  NodeId grid_ = kInvalidNode;
  double side_ = 0.0;
};

TEST_P(EpochProperty, PatchedSnapshotsMatchOracleUnderMobilityAndChurn) {
  WaypointConfig wconfig;
  wconfig.width_m = side_;
  wconfig.height_m = side_;
  wconfig.horizon = sim::SimTime::seconds(30.0);
  std::vector<NodeId> walkers(ids_.begin(),
                              ids_.begin() + std::min<std::size_t>(
                                                 ids_.size(), 4));
  WaypointMobility mobility(net_, walkers, wconfig,
                            common::Rng(GetParam().seed + 17));
  mobility.start();

  ChurnConfig cconfig;
  cconfig.mean_up = sim::SimTime::seconds(6.0);
  cconfig.mean_down = sim::SimTime::seconds(3.0);
  cconfig.horizon = sim::SimTime::seconds(30.0);
  NodeChurn churn(net_, ids_, cconfig, common::Rng(GetParam().seed + 29));
  churn.start();

  // Background traffic drains batteries, so scoped liveness invalidation
  // (battery death without a topology bump) is exercised too.
  common::Rng traffic(GetParam().seed + 5);
  for (int i = 0; i < 40; ++i) {
    sim_.schedule(sim::SimTime::seconds(0.5 * i), [this, &traffic] {
      const NodeId a = ids_[traffic.index(ids_.size())];
      const NodeId b = ids_[traffic.index(ids_.size())];
      net_.transmit(a, b, 256, [](bool) {});
    });
  }

  common::Rng pairs(GetParam().seed + 99);
  for (int probe = 0; probe < 10; ++probe) {
    sim_.schedule(sim::SimTime::seconds(1.0 + 3.0 * probe), [this, &pairs] {
      expect_epoch_matches_oracle(net_, pairs, 6);
    });
  }
  sim_.run();
  EXPECT_GT(net_.topology_stats().scoped_epochs +
                net_.topology_stats().global_epochs,
            0u)
      << "the epoch machinery never ran";
  EXPECT_GT(mobility.moves(), 0u);
}

TEST_P(EpochProperty, ChaosMobilityChurnStayOracleIdenticalAndExactlyOnce) {
  // The full storm at once: partitions that cut and heal, link blackouts,
  // waypoint mobility and node churn — every class of topology change the
  // scoped invalidation must absorb — while a reliable channel pushes
  // unicasts through the wreckage.  Exactly-once delivery and oracle
  // bit-identity must both hold throughout.
  sim::ChaosEngine engine(net_, GetParam().seed);
  sim::ChaosConfig config;
  config.horizon = sim::SimTime::seconds(40.0);
  config.fault_count = 10;
  config.mix = sim::ChaosMix::partition_storm();
  engine.arm(config);

  WaypointConfig wconfig;
  wconfig.width_m = side_;
  wconfig.height_m = side_;
  wconfig.horizon = sim::SimTime::seconds(40.0);
  std::vector<NodeId> walkers(ids_.begin(),
                              ids_.begin() + std::min<std::size_t>(
                                                 ids_.size(), 4));
  WaypointMobility mobility(net_, walkers, wconfig,
                            common::Rng(GetParam().seed + 41));
  mobility.start();

  ChurnConfig cconfig;
  cconfig.mean_up = sim::SimTime::seconds(8.0);
  cconfig.mean_down = sim::SimTime::seconds(3.0);
  cconfig.horizon = sim::SimTime::seconds(40.0);
  NodeChurn churn(net_, ids_, cconfig, common::Rng(GetParam().seed + 43));
  churn.start();

  ReliableChannel channel(net_, {}, common::Rng(GetParam().seed ^ 0xEE));
  std::map<std::pair<NodeId, std::uint64_t>, int> accepted;
  channel.set_delivery_probe([&](NodeId dst, std::uint64_t seq) {
    ++accepted[{dst, seq}];
  });
  common::Rng traffic(GetParam().seed + 55);
  std::size_t done_count = 0;
  const std::size_t sends = 20;
  for (std::size_t i = 0; i < sends; ++i) {
    sim_.schedule(sim::SimTime::seconds(1.5 * double(i)), [this, &traffic,
                                                          &channel,
                                                          &done_count] {
      const NodeId src = ids_[traffic.index(ids_.size())];
      const NodeId dst = ids_[traffic.index(ids_.size())];
      channel.unicast(src, dst, 128,
                      Budget::until(sim_.now() + sim::SimTime::seconds(8.0)),
                      [&done_count](bool) { ++done_count; });
    });
  }

  common::Rng pairs(GetParam().seed + 7);
  for (int probe = 0; probe < 12; ++probe) {
    sim_.schedule(sim::SimTime::seconds(0.5 + 3.5 * probe), [this, &pairs] {
      expect_epoch_matches_oracle(net_, pairs, 5);
    });
  }
  sim_.run();

  // Exactly-once: `done` fired once per send, and no destination accepted
  // the same payload twice.
  EXPECT_EQ(done_count, sends);
  for (const auto& [key, count] : accepted) {
    EXPECT_EQ(count, 1) << "duplicate delivery at node " << key.first
                        << " seq " << key.second;
  }

  // Post-heal: every fault window has expired; patched structures must
  // converge back to the healed topology.
  ASSERT_TRUE(engine.quiescent());
  common::Rng healed(GetParam().seed + 13);
  expect_epoch_matches_oracle(net_, healed, 10);
}

TEST_P(EpochProperty, OnAndOffModesAreOutcomeIdentical) {
  // Scoped epochs must not change a single answer — only the work done to
  // produce it.  Replay one seeded scenario (moves, churn, death, mid-run
  // add_node, wired toggles) twice: once as is, once with an explicit
  // bump_topology_version() after every step's mutations, which widens
  // each change to a global epoch (full rebuild, wholesale cache clear).  The full
  // route/snapshot trace must match bit-for-bit.
  struct Trace {
    std::vector<std::vector<NodeId>> routes;
    std::vector<std::uint32_t> offsets;
    std::vector<NodeId> adjacency;
    std::vector<double> hop_distance;
    TopologyStats stats;
  };
  auto run_mode = [&](bool force_global) {
    sim::Simulator sim;
    Network net(sim, common::Rng(GetParam().seed));
    NodeConfig config;
    config.kind = NodeKind::kSensor;
    config.radio = LinkClass::sensor_radio();
    config.battery_j = 0.05;
    common::Rng placement(GetParam().seed ^ 0xabcdef);
    auto ids = GetParam().grid_placement
                   ? deploy_grid(net, GetParam().nodes, side_, side_, config)
                   : deploy_random(net, GetParam().nodes, side_, side_,
                                   config, placement);
    NodeConfig wired;
    wired.kind = NodeKind::kGrid;
    wired.radio = LinkClass::wired();
    wired.pos = {-20.0, -20.0, 0.0};
    wired.unlimited_energy = true;
    const NodeId g0 = net.add_node(wired);
    wired.pos = {-30.0, -20.0, 0.0};
    const NodeId g1 = net.add_node(wired);
    net.add_wired_link(g0, g1);

    Trace trace;
    common::Rng script(GetParam().seed + 77);
    common::Rng pairs(GetParam().seed + 78);
    auto query_batch = [&] {
      for (int q = 0; q < 6; ++q) {
        const auto src = static_cast<NodeId>(pairs.index(net.size()));
        const auto dst = static_cast<NodeId>(pairs.index(net.size()));
        trace.routes.push_back(cached_shortest_path(net, src, dst));
      }
    };
    query_batch();
    for (int step = 0; step < 12; ++step) {
      const NodeId mover = ids[script.index(ids.size())];
      net.move_node(mover, Vec3{script.uniform(0.0, side_),
                                script.uniform(0.0, side_), 0.0});
      const NodeId toggled = ids[script.index(ids.size())];
      net.set_node_up(toggled, (step % 3) != 0);
      if (step == 4) net.set_wired_link_up(g0, g1, false);
      if (step == 7) net.set_wired_link_up(g0, g1, true);
      if (step == 5) {
        NodeConfig late = config;
        late.pos = {side_ * 0.5, side_ * 0.5, 0.0};
        ids.push_back(net.add_node(late));  // global epoch mid-run
      }
      if (step == 8) {
        const NodeId victim = ids.front();
        net.drain_energy(victim,
                         net.node(victim).energy.capacity() + 1.0);
      }
      // No cache is read between a step's mutations, so one bump here
      // turns every one of them into a global epoch.
      if (force_global) net.bump_topology_version();
      query_batch();
    }
    const auto& snapshot = net.topology_snapshot();
    trace.offsets = snapshot.offsets;
    trace.adjacency = snapshot.adjacency;
    trace.hop_distance = snapshot.hop_distance;
    trace.stats = net.topology_stats();
    return trace;
  };

  const Trace global = run_mode(true);
  const Trace scoped = run_mode(false);
  ASSERT_EQ(scoped.routes.size(), global.routes.size());
  for (std::size_t i = 0; i < global.routes.size(); ++i) {
    EXPECT_EQ(scoped.routes[i], global.routes[i])
        << "route trace diverged at " << i;
  }
  EXPECT_EQ(scoped.offsets, global.offsets);
  EXPECT_EQ(scoped.adjacency, global.adjacency);
  EXPECT_EQ(scoped.hop_distance, global.hop_distance);
  // The forced run really took the old discipline: it never patched.
  EXPECT_EQ(global.stats.scoped_epochs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Epochs, EpochProperty,
    ::testing::Values(EpochCase{1, 25, true}, EpochCase{2, 49, true},
                      EpochCase{3, 36, false}, EpochCase{7, 64, false},
                      EpochCase{11, 80, false}, EpochCase{25, 100, true}),
    [](const ::testing::TestParamInfo<EpochCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.nodes) +
             (info.param.grid_placement ? "_grid" : "_random");
    });

// ---------------------------------------------------------------------------
// Scoped-survival mechanics on a hand-built deployment
// ---------------------------------------------------------------------------

TEST(EpochScoping, SingleMovePatchesFewRowsAndKeepsDistantRoutes) {
  sim::Simulator sim;
  Network net(sim, common::Rng(9));
  NodeConfig config;
  config.kind = NodeKind::kSensor;
  config.radio = LinkClass::sensor_radio();
  config.unlimited_energy = true;
  const std::size_t n = 100;
  const double side = 15.0 * 10.0;
  auto ids = deploy_grid(net, n, side, side, config);

  // Prime the cache with a route confined to the first two grid rows —
  // far from the corner we are about to perturb.
  const auto near_route = cached_shortest_path(net, ids[0], ids[15]);
  ASSERT_FALSE(near_route.empty());
  // And one long route that passes near the far corner.
  const auto far_route = cached_shortest_path(net, ids[0], ids[99]);
  ASSERT_FALSE(far_route.empty());

  const auto before = net.topology_stats();
  const auto cache_before = net.route_cache().stats();

  // Nudge the far-corner node a metre: only its 3x3x3 gather block can be
  // affected, so the epoch must patch, not rebuild.
  const Vec3 at = net.node(ids[99]).pos;
  net.move_node(ids[99], Vec3{at.x - 1.0, at.y - 1.0, at.z});
  net.sync_topology_caches();

  const auto after = net.topology_stats();
  const auto cache_after = net.route_cache().stats();
  EXPECT_EQ(after.scoped_epochs, before.scoped_epochs + 1);
  EXPECT_EQ(after.snapshot_patches, before.snapshot_patches + 1);
  EXPECT_EQ(after.snapshot_builds, before.snapshot_builds)
      << "a scoped move must not trigger a full rebuild";
  EXPECT_LE(after.rows_patched - before.rows_patched, n / 2);
  EXPECT_EQ(cache_after.scoped_epochs, cache_before.scoped_epochs + 1);
  EXPECT_GT(cache_after.routes_kept, cache_before.routes_kept)
      << "the near route should survive a far-corner move";

  // Survivors and recomputed routes alike must match the oracle.
  EXPECT_EQ(cached_shortest_path(net, ids[0], ids[15]),
            oracle_route(net, ids[0], ids[15]));
  EXPECT_EQ(cached_shortest_path(net, ids[0], ids[99]),
            oracle_route(net, ids[0], ids[99]));
  common::Rng pairs(31);
  expect_epoch_matches_oracle(net, pairs, 8);
}

TEST(EpochScoping, ShortcutThroughMovedNodeEvictsStillConnectedRoute) {
  // A -- B -- C is cached (2 hops, ~38.4 m).  X then moves in between A
  // and C, opening A -- X -- C (2 hops, 30 m).  The cached route is still
  // connected, so per-hop revalidation cannot save a stale survivor: only
  // the scoped invalidation rules can drop it.  A far-off filler grid
  // keeps the dirty set under n/2, so the epoch is scoped, not a rebuild.
  sim::Simulator sim;
  Network net(sim, common::Rng(5));
  NodeConfig config;
  config.kind = NodeKind::kSensor;
  config.radio = LinkClass::sensor_radio();
  config.radio.range_m = 25.0;
  config.unlimited_energy = true;
  config.pos = {0.0, 0.0, 0.0};
  const NodeId a = net.add_node(config);
  config.pos = {15.0, 12.0, 0.0};
  const NodeId b = net.add_node(config);
  config.pos = {30.0, 0.0, 0.0};
  const NodeId c = net.add_node(config);
  config.pos = {15.0, -200.0, 0.0};
  const NodeId x = net.add_node(config);
  for (int i = 0; i < 36; ++i) {
    config.pos = {500.0 + 20.0 * (i % 6), 500.0 + 20.0 * (i / 6), 0.0};
    net.add_node(config);
  }
  ASSERT_EQ(cached_shortest_path(net, a, c), (std::vector<NodeId>{a, b, c}));

  const auto before = net.topology_stats();
  net.move_node(x, Vec3{15.0, 0.0, 0.0});
  EXPECT_EQ(cached_shortest_path(net, a, c), (std::vector<NodeId>{a, x, c}));
  EXPECT_EQ(cached_shortest_path(net, a, c), oracle_route(net, a, c));
  EXPECT_EQ(net.topology_stats().scoped_epochs, before.scoped_epochs + 1)
      << "the move must take the scoped path this test is about";
  EXPECT_EQ(net.route_cache().stats().revalidation_failures, 0u);
}

// ---------------------------------------------------------------------------
// reset_energy(): a global epoch only when it revives a dead battery
// ---------------------------------------------------------------------------

/// 6x6 battery sensors at 15 m pitch (sensor radio: 25 m).
struct ResetRig {
  sim::Simulator sim;
  Network net;
  std::vector<NodeId> ids;

  ResetRig() : net(sim, common::Rng(13)) {
    NodeConfig config;
    config.kind = NodeKind::kSensor;
    config.radio = LinkClass::sensor_radio();
    config.battery_j = 2.0;
    ids = deploy_grid(net, 36, 75.0, 75.0, config);
  }
};

TEST(EpochReset, NoDeadNodeOpensNoEpochAndKeepsCaches) {
  ResetRig rig;
  Network& net = rig.net;
  const auto route = cached_shortest_path(net, rig.ids[0], rig.ids[35]);
  ASSERT_GE(route.size(), 3u);
  net.transmit(rig.ids[0], rig.ids[1], 64, [](bool) {});
  rig.sim.run();
  ASSERT_GT(net.battery_energy_consumed(), 0.0);
  ASSERT_EQ(net.dead_node_count(), 0u);

  const auto topo = net.topology_version();
  const auto live = net.liveness_version();
  const auto stats = net.topology_stats();
  const auto hits = net.route_cache().stats().hits;
  net.reset_energy();

  EXPECT_EQ(net.battery_energy_consumed(), 0.0) << "batteries still refill";
  EXPECT_EQ(net.topology_version(), topo);
  EXPECT_EQ(net.liveness_version(), live);
  EXPECT_EQ(cached_shortest_path(net, rig.ids[0], rig.ids[35]), route);
  EXPECT_EQ(net.route_cache().stats().hits, hits + 1)
      << "the route cached before the reset must still hit";
  net.topology_snapshot();
  EXPECT_EQ(net.topology_stats().snapshot_builds, stats.snapshot_builds);
  EXPECT_EQ(net.topology_stats().global_epochs, stats.global_epochs);
  EXPECT_EQ(net.topology_stats().scoped_epochs, stats.scoped_epochs);
}

TEST(EpochReset, RevivingADeadNodeRestoresItsLinks) {
  ResetRig rig;
  Network& net = rig.net;
  const NodeId victim = rig.ids[14];  // interior: eight radio neighbours
  const auto row = net.topology_snapshot().row(victim);
  const std::vector<NodeId> live_row(row.begin(), row.end());
  ASSERT_FALSE(live_row.empty());

  net.drain_energy(victim, 1e9);
  ASSERT_FALSE(net.alive(victim));
  EXPECT_TRUE(net.topology_snapshot().row(victim).empty());
  const auto topo = net.topology_version();
  const auto global = net.topology_stats().global_epochs;

  net.reset_energy();
  EXPECT_TRUE(net.alive(victim));
  EXPECT_GT(net.topology_version(), topo);
  const auto& snapshot = net.topology_snapshot();
  EXPECT_EQ(net.topology_stats().global_epochs, global + 1);
  const auto revived = snapshot.row(victim);
  EXPECT_TRUE(std::equal(revived.begin(), revived.end(), live_row.begin(),
                         live_row.end()))
      << "the revived node's links must reappear";
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto naive = net.neighbors_naive(id);
    const auto got = snapshot.row(id);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), naive.begin(),
                           naive.end()))
        << "snapshot row diverged at node " << id;
  }
  EXPECT_EQ(sim::check_topology_caches_fresh(net), std::nullopt);
  EXPECT_EQ(cached_shortest_path(net, rig.ids[0], rig.ids[35]),
            oracle_route(net, rig.ids[0], rig.ids[35]));
}

// ---------------------------------------------------------------------------
// Local route repair (ReliableConfig::repair_depth)
// ---------------------------------------------------------------------------

/// Line A-B-C-D-E at 20 m pitch (sensor radio: 25 m) plus a bypass node X
/// adjacent to B, C and D only.  Killing C mid-flight forces the hop B->C
/// to fail; with repair_depth >= 2 the channel must splice B-X-D locally
/// instead of rerunning full discovery.
struct RepairRig {
  sim::Simulator sim;
  Network net;
  NodeId a, b, c, d, e, x;

  RepairRig() : net(sim, common::Rng(4)) {
    NodeConfig config;
    config.kind = NodeKind::kSensor;
    config.radio = LinkClass::sensor_radio();
    config.unlimited_energy = true;
    auto add = [&](double px, double py) {
      config.pos = {px, py, 0.0};
      return net.add_node(config);
    };
    a = add(0.0, 0.0);
    b = add(20.0, 0.0);
    c = add(40.0, 0.0);
    d = add(60.0, 0.0);
    e = add(80.0, 0.0);
    x = add(40.0, 12.0);
  }
};

TEST(EpochRepair, SpliceBridgesAroundDeadHopWithoutFullReroute) {
  RepairRig rig;
  ReliableConfig config;
  config.repair_depth = 2;
  ReliableChannel channel(rig.net, config, common::Rng(5));

  // The 4-hop line wins the initial route (shorter geometric distance than
  // the bypass), so the transfer starts through C.
  ASSERT_EQ(cached_shortest_path(rig.net, rig.a, rig.e),
            (std::vector<NodeId>{rig.a, rig.b, rig.c, rig.d, rig.e}));

  bool delivered = false;
  channel.unicast(rig.a, rig.e, 64, Budget::unlimited(),
                  [&](bool ok) { delivered = ok; });
  // Kill C after the route is locked in but before delivery completes.
  rig.sim.schedule(sim::SimTime::seconds(1e-4),
                   [&] { rig.net.set_node_up(rig.c, false); });
  rig.sim.run();

  EXPECT_TRUE(delivered);
  EXPECT_GE(channel.stats().local_repairs, 1u);
}

TEST(EpochRepair, DepthZeroFallsBackToFullRerouteUnchanged) {
  RepairRig rig;
  ReliableChannel channel(rig.net, {}, common::Rng(5));  // repair_depth = 0

  bool delivered = false;
  channel.unicast(rig.a, rig.e, 64, Budget::unlimited(),
                  [&](bool ok) { delivered = ok; });
  rig.sim.schedule(sim::SimTime::seconds(1e-4),
                   [&] { rig.net.set_node_up(rig.c, false); });
  rig.sim.run();

  EXPECT_TRUE(delivered);
  EXPECT_EQ(channel.stats().local_repairs, 0u);
  EXPECT_GE(channel.stats().reroutes, 1u);
}

}  // namespace
}  // namespace pgrid::net
