// Property tests for the topology acceleration layer: the spatial-index
// neighbours, the CSR snapshot and the LRU route cache must be
// bit-identical to the naive scan / fresh-Dijkstra oracles for every
// topology, under seeded mobility, churn, partition-heal and full chaos
// schedules.  Seeds reuse the chaos harness's sweep range (1..25).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "net/churn.hpp"
#include "net/flow.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/chaos.hpp"
#include "sim/simulator.hpp"

namespace pgrid::net {
namespace {

/// Fully independent route oracle: Dijkstra with cost = (hops, distance)
/// re-implemented here over the naive neighbour scan, sharing no code with
/// routing.cpp.
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

/// Asserts indexed neighbours, snapshot rows and cached routes all agree
/// with their oracles over the whole deployment right now.
void expect_accel_matches_oracle(const Network& net, common::Rng& pairs,
                                 std::size_t route_probes) {
  const auto& snapshot = net.topology_snapshot();
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto naive = net.neighbors_naive(id);
    const auto indexed = net.neighbors(id);
    ASSERT_EQ(indexed, naive) << "spatial index diverged at node " << id;
    const auto row = snapshot.row(id);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), naive.begin(),
                           naive.end()))
        << "snapshot row diverged at node " << id;
  }
  for (std::size_t probe = 0; probe < route_probes; ++probe) {
    const auto src = static_cast<NodeId>(pairs.index(net.size()));
    const auto dst = static_cast<NodeId>(pairs.index(net.size()));
    const auto expected = oracle_route(net, src, dst);
    ASSERT_EQ(shortest_path(net, src, dst), expected)
        << "snapshot Dijkstra diverged for " << src << " -> " << dst;
    // Twice: the first call may compute-and-fill, the second must hit.
    ASSERT_EQ(cached_shortest_path(net, src, dst), expected)
        << "cold cached route diverged for " << src << " -> " << dst;
    ASSERT_EQ(cached_shortest_path(net, src, dst), expected)
        << "warm cached route diverged for " << src << " -> " << dst;
  }
}

struct TopologyCase {
  std::uint64_t seed;
  std::size_t nodes;
  bool grid_placement;
};

class TopologyProperty : public ::testing::TestWithParam<TopologyCase> {
 protected:
  TopologyProperty() : net_(sim_, common::Rng(GetParam().seed)) {
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
    // A mixed deployment: a mains-powered wifi base and a wired backhaul
    // pair, so wired peers, heterogeneous ranges and unlimited energy are
    // all in play.
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

TEST_P(TopologyProperty, IndexedNeighborsMatchNaiveUnderMobilityAndChurn) {
  WaypointConfig wconfig;
  wconfig.width_m = side_;
  wconfig.height_m = side_;
  wconfig.horizon = sim::SimTime::seconds(30.0);
  std::vector<NodeId> walkers(ids_.begin(),
                              ids_.begin() + std::min<std::size_t>(
                                                 ids_.size(), 8));
  WaypointMobility mobility(net_, walkers, wconfig,
                            common::Rng(GetParam().seed + 17));
  mobility.start();

  ChurnConfig cconfig;
  cconfig.mean_up = sim::SimTime::seconds(6.0);
  cconfig.mean_down = sim::SimTime::seconds(3.0);
  cconfig.horizon = sim::SimTime::seconds(30.0);
  NodeChurn churn(net_, ids_, cconfig, common::Rng(GetParam().seed + 29));
  churn.start();

  // Background traffic drains batteries, so liveness-version invalidation
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
      expect_accel_matches_oracle(net_, pairs, 6);
    });
  }
  sim_.run();
  EXPECT_GT(net_.topology_stats().neighbor_queries, 0u);
}

TEST_P(TopologyProperty, CachedRoutesMatchOracleUnderChaosSchedules) {
  // Full chaos: blackouts, partitions that cut and heal, crashes with
  // reboot energy loss — every fault bumps a version the cache keys on.
  sim::ChaosEngine engine(net_, GetParam().seed);
  sim::ChaosConfig config;
  config.horizon = sim::SimTime::seconds(40.0);
  config.fault_count = 14;
  config.mix = sim::ChaosMix::partition_storm();
  engine.arm(config);

  common::Rng pairs(GetParam().seed + 7);
  for (int probe = 0; probe < 12; ++probe) {
    sim_.schedule(sim::SimTime::seconds(0.5 + 3.5 * probe), [this, &pairs] {
      expect_accel_matches_oracle(net_, pairs, 5);
    });
  }
  sim_.run();

  // Post-heal: every fault window has expired; the accelerated structures
  // must converge back to the healed topology.
  ASSERT_TRUE(engine.quiescent());
  common::Rng healed(GetParam().seed + 13);
  expect_accel_matches_oracle(net_, healed, 10);
  EXPECT_GT(net_.route_cache().stats().hits, 0u);
}

TEST_P(TopologyProperty, RouteCacheInvalidatesOnMovesChurnAndDeath) {
  const NodeId src = ids_.front();
  const NodeId dst = ids_.back();
  common::Rng pairs(GetParam().seed + 3);

  // Mobility invalidation: teleport a mid-route node far away.
  auto before = cached_shortest_path(net_, src, dst);
  if (before.size() > 2) {
    const NodeId hop = before[before.size() / 2];
    net_.move_node(hop, Vec3{side_ * 4.0, side_ * 4.0, 0.0});
    EXPECT_EQ(cached_shortest_path(net_, src, dst),
              oracle_route(net_, src, dst));
    expect_accel_matches_oracle(net_, pairs, 4);
  }

  // Churn invalidation.
  net_.set_node_up(dst, false);
  EXPECT_TRUE(cached_shortest_path(net_, src, dst).empty());
  net_.set_node_up(dst, true);
  EXPECT_EQ(cached_shortest_path(net_, src, dst),
            oracle_route(net_, src, dst));

  // Battery-death invalidation: exhaust the destination without any
  // topology bump; the cache must not serve the stale route.
  ASSERT_FALSE(net_.node(dst).energy.is_unlimited());
  const auto live_route = cached_shortest_path(net_, src, dst);
  net_.drain_energy(dst, net_.node(dst).energy.capacity() + 1.0);
  ASSERT_TRUE(net_.node(dst).energy.dead());
  EXPECT_TRUE(cached_shortest_path(net_, src, dst).empty())
      << "stale route served across a battery death (was "
      << live_route.size() << " hops)";
  expect_accel_matches_oracle(net_, pairs, 4);
}

TEST_P(TopologyProperty, WiredPairIndexMatchesLinearScanSemantics) {
  // Duplicate links on one pair: the first added must stay authoritative
  // for link_between and for up/down toggles (historical first-match).
  LinkClass fast = LinkClass::wired();
  fast.bandwidth_bps = 200e6;
  LinkClass slow = LinkClass::wired();
  slow.bandwidth_bps = 1e6;
  net_.add_wired_link(grid_, ids_.front(), fast);
  net_.add_wired_link(ids_.front(), grid_, slow);  // duplicate, reversed

  auto link = net_.link_between(grid_, ids_.front());
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(link->bandwidth_bps, 200e6) << "first link added must win";

  EXPECT_TRUE(net_.connected(grid_, ids_.front()));
  net_.set_wired_link_up(ids_.front(), grid_, false);
  EXPECT_FALSE(net_.connected(grid_, ids_.front()));
  EXPECT_FALSE(net_.link_between(grid_, ids_.front()).has_value());
  net_.set_wired_link_up(grid_, ids_.front(), true);
  EXPECT_TRUE(net_.connected(grid_, ids_.front()));

  // Unknown pair: no-op, exactly like the scan finding nothing.
  net_.set_wired_link_up(ids_.front(), ids_.back(), false);

  common::Rng pairs(GetParam().seed + 21);
  expect_accel_matches_oracle(net_, pairs, 4);
}

TEST_P(TopologyProperty, SinkTreeMaxDepthMatchesDepthScan) {
  SinkTree tree(net_, base_);
  std::size_t deepest = 0;
  for (NodeId id = 0; id < net_.size(); ++id) {
    if (tree.contains(id)) deepest = std::max(deepest, tree.depth(id));
  }
  EXPECT_EQ(tree.max_depth(), deepest);
}

// ---------------------------------------------------------------------------
// The layered route search on exact ties, degenerate endpoints and reused
// scratch
// ---------------------------------------------------------------------------

/// A square deploy_grid mesh of side x side mains-powered sensors exactly
/// `spacing` metres apart.  At 18 m only the 4-neighbours are in radio
/// range (the diagonal is 25.5 m against a 25 m range), at 16 m the
/// diagonals join.  Either way every pair a few hops apart is joined by
/// many paths with the same (hops, distance), so only the tie-break
/// decides the route.
std::vector<NodeId> tie_mesh(Network& net, std::size_t side, double spacing) {
  NodeConfig config;
  config.kind = NodeKind::kSensor;
  config.radio = LinkClass::sensor_radio();
  config.unlimited_energy = true;
  const double extent = spacing * static_cast<double>(side - 1);
  return deploy_grid(net, side * side, extent, extent, config);
}

void expect_all_pairs_match_oracle(const Network& net) {
  for (NodeId src = 0; src < net.size(); ++src) {
    for (NodeId dst = 0; dst < net.size(); ++dst) {
      ASSERT_EQ(shortest_path(net, src, dst), oracle_route(net, src, dst))
          << src << " -> " << dst;
    }
  }
}

TEST(LayeredRouteSearch, RegularMeshTiesMatchOracle) {
  for (const double spacing : {18.0, 16.0}) {
    sim::Simulator sim;
    Network net(sim, common::Rng(1));
    const auto ids = tie_mesh(net, 7, spacing);
    // Corner to corner: 12 hops on the 4-neighbour lattice (924 tied
    // paths), 6 diagonal hops once diagonals are in range.
    EXPECT_EQ(shortest_path(net, ids.front(), ids.back()).size(),
              spacing == 18.0 ? 13u : 7u);
    expect_all_pairs_match_oracle(net);
  }
}

TEST(LayeredRouteSearch, DeadNodesUnreachableAndDegenerateEndpoints) {
  sim::Simulator sim;
  Network net(sim, common::Rng(2));
  const auto ids = tie_mesh(net, 7, 18.0);
  const auto at = [&ids](std::size_t row, std::size_t col) {
    return ids[row * 7 + col];
  };
  // A dead wall down column 3 with one gap: every east-west route squeezes
  // through row 5.
  for (std::size_t row = 0; row < 7; ++row) {
    if (row != 5) net.set_node_up(at(row, 3), false);
  }
  expect_all_pairs_match_oracle(net);
  const auto squeezed = shortest_path(net, at(0, 0), at(0, 6));
  ASSERT_FALSE(squeezed.empty());
  EXPECT_NE(std::find(squeezed.begin(), squeezed.end(), at(5, 3)),
            squeezed.end());

  // Closing the gap cuts the mesh in two: the east half is unreachable.
  net.set_node_up(at(5, 3), false);
  EXPECT_TRUE(shortest_path(net, at(0, 0), at(0, 6)).empty());
  expect_all_pairs_match_oracle(net);

  // src == dst: the one-node route when alive, nothing when dead.
  EXPECT_EQ(shortest_path(net, at(0, 0), at(0, 0)),
            std::vector<NodeId>{at(0, 0)});
  EXPECT_TRUE(shortest_path(net, at(0, 3), at(0, 3)).empty());
  // Dead and out-of-range endpoints.
  EXPECT_TRUE(shortest_path(net, at(0, 3), at(0, 0)).empty());
  EXPECT_TRUE(shortest_path(net, at(0, 0), at(0, 3)).empty());
  const auto past = static_cast<NodeId>(net.size());
  EXPECT_TRUE(shortest_path(net, past, at(0, 0)).empty());
  EXPECT_TRUE(shortest_path(net, at(0, 0), past).empty());
  EXPECT_TRUE(shortest_path(net, kInvalidNode, kInvalidNode).empty());
}

TEST(LayeredRouteSearch, ScratchResizedAndReusedAcrossNetworks) {
  sim::Simulator sim;
  Network small(sim, common::Rng(3));
  Network large(sim, common::Rng(4));
  tie_mesh(small, 4, 16.0);
  tie_mesh(large, 9, 18.0);
  common::Rng pairs(5);
  NodeConfig extra;
  extra.kind = NodeKind::kSensor;
  extra.radio = LinkClass::sensor_radio();
  extra.unlimited_energy = true;
  for (int round = 0; round < 4; ++round) {
    // Back-to-back searches alternate between the two networks, including
    // ids one past the end.
    for (int probe = 0; probe < 40; ++probe) {
      for (Network* net : {&small, &large}) {
        const auto src = static_cast<NodeId>(pairs.index(net->size() + 1));
        const auto dst = static_cast<NodeId>(pairs.index(net->size() + 1));
        ASSERT_EQ(shortest_path(*net, src, dst), oracle_route(*net, src, dst))
            << "round " << round << ": " << src << " -> " << dst << " on "
            << net->size() << " nodes";
      }
    }
    // Grow the small mesh along its top edge: its scratch must resize.
    extra.pos = {16.0 * round, 64.0, 0.0};
    small.add_node(extra);
  }
  expect_all_pairs_match_oracle(small);
  EXPECT_EQ(small.route_scratch().slots.size(), small.size());

  // Exhaust the stamp range: the next search must re-zero the stamps
  // rather than mistake an earlier search's marks for its own.
  RouteScratch& scratch = large.route_scratch();
  scratch.last = std::numeric_limits<std::uint32_t>::max() - 2;
  expect_all_pairs_match_oracle(large);
  EXPECT_LT(scratch.last, std::numeric_limits<std::uint32_t>::max() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, TopologyProperty,
    ::testing::Values(TopologyCase{1, 25, true}, TopologyCase{2, 49, true},
                      TopologyCase{3, 36, false}, TopologyCase{7, 64, false},
                      TopologyCase{11, 80, false},
                      TopologyCase{25, 100, true}),
    [](const ::testing::TestParamInfo<TopologyCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.nodes) +
             (info.param.grid_placement ? "_grid" : "_random");
    });

// ---------------------------------------------------------------------------
// Row build and link lookup on a mesh mixing every candidate kind
// ---------------------------------------------------------------------------

/// Severs exactly one unordered pair; no per-hop effects.
class SeverPairInjector final : public FaultInjector {
 public:
  SeverPairInjector(NodeId a, NodeId b) : a_(a), b_(b) {}
  bool severed(NodeId x, NodeId y) const override {
    return (x == a_ && y == b_) || (x == b_ && y == a_);
  }
  HopEffect on_transmit(NodeId, NodeId, std::uint64_t) override {
    return {};
  }

 private:
  NodeId a_;
  NodeId b_;
};

TEST(RowBuild, MixedCandidatesMatchNaiveAndLinkPathsAgree) {
  // A wired-only grid node (id 0, below every wireless id, so the row
  // build must sort wired peers in) and a line of sensors 15 m apart
  // (sensor radio: 25 m).  w0-w1 are in radio range AND wired (a duplicate
  // candidate); w1-w2 are in radio range but their wired link is down,
  // which severs them; g-w4 is a down wired link; w3-w4 is cut by a fault
  // injector in the second phase.  Every node stays up and alive, so the
  // agreement checked here covers candidate kinds and link states, not
  // endpoint liveness.
  sim::Simulator sim;
  Network net(sim, common::Rng(3));
  NodeConfig wired_only;
  wired_only.kind = NodeKind::kGrid;
  wired_only.radio = LinkClass::wired();
  wired_only.pos = {500.0, 500.0, 0.0};
  wired_only.unlimited_energy = true;
  const NodeId g = net.add_node(wired_only);
  NodeConfig sensor;
  sensor.kind = NodeKind::kSensor;
  sensor.radio = LinkClass::sensor_radio();
  sensor.unlimited_energy = true;
  std::vector<NodeId> w;
  for (int i = 0; i < 5; ++i) {
    sensor.pos = {15.0 * i, 0.0, 0.0};
    w.push_back(net.add_node(sensor));
  }
  net.add_wired_link(w[0], w[1]);
  net.add_wired_link(g, w[0]);
  net.add_wired_link(w[1], w[2]);
  net.set_wired_link_up(w[1], w[2], false);
  net.add_wired_link(g, w[4]);
  net.set_wired_link_up(w[4], g, false);
  FlowModel flow(net, common::Rng(4));

  auto check = [&](const std::vector<std::vector<NodeId>>& expected) {
    const auto& snapshot = net.topology_snapshot();
    for (NodeId a = 0; a < net.size(); ++a) {
      const auto naive = net.neighbors_naive(a);
      EXPECT_EQ(naive, expected[a]) << "naive row of " << a;
      EXPECT_EQ(net.neighbors(a), naive) << "indexed row of " << a;
      const auto row = snapshot.row(a);
      EXPECT_TRUE(std::equal(row.begin(), row.end(), naive.begin(),
                             naive.end()))
          << "snapshot row of " << a;
      for (NodeId b = 0; b < net.size(); ++b) {
        const auto link = net.link_between(a, b);
        EXPECT_EQ(link.has_value(),
                  std::find(naive.begin(), naive.end(), b) != naive.end())
            << a << " -> " << b;
        // The flow tier's hop and the packet tier's transmit resolve the
        // link through the internal pointer path; both must agree with
        // link_between on presence and on every parameter they read.
        FlowModel::HopOutcome hop;
        ASSERT_EQ(flow.hop_outcome(a, b, 64, hop), link.has_value())
            << a << " -> " << b;
        if (link) {
          EXPECT_EQ(hop.loss_p, std::clamp(link->loss_prob, 0.0, 1.0));
          EXPECT_EQ(hop.base_latency.us, link->transfer_time(64).us);
          EXPECT_EQ(hop.wireless, link->wireless);
        }
        const auto sent = net.stats().transmissions;
        bool delivered = true;
        net.transmit(a, b, 64, [&delivered](bool ok) { delivered = ok; });
        sim.run();
        if (link) {
          EXPECT_GT(net.stats().transmissions, sent) << a << " -> " << b;
        } else {
          EXPECT_FALSE(delivered) << a << " -> " << b;
          EXPECT_EQ(net.stats().transmissions, sent) << a << " -> " << b;
        }
      }
    }
  };

  // The duplicate candidate resolves to the wired link (wired preferred).
  const auto both = net.link_between(w[0], w[1]);
  ASSERT_TRUE(both.has_value());
  EXPECT_FALSE(both->wireless);

  check({{w[0]}, {g, w[1]}, {w[0]}, {w[3]}, {w[2], w[4]}, {w[3]}});
  SeverPairInjector cut(w[3], w[4]);
  net.set_fault_injector(&cut);
  check({{w[0]}, {g, w[1]}, {w[0]}, {w[3]}, {w[2]}, {}});
  net.set_fault_injector(nullptr);
}

// ---------------------------------------------------------------------------
// Spatial gather: exactly the nodes within the querier's own range
// ---------------------------------------------------------------------------

/// The gather contract by brute force: every other wireless node whose
/// position lies within `id`'s own range of `id`, ascending.
std::vector<NodeId> gather_oracle(const Network& net, NodeId id) {
  std::vector<NodeId> out;
  const Node& self = net.node(id);
  if (!self.radio.wireless) return out;
  const double range = std::max(self.radio.range_m, 0.0);
  for (NodeId other = 0; other < net.size(); ++other) {
    if (other != id && net.node(other).radio.wireless &&
        distance(self.pos, net.node(other).pos) <= range) {
      out.push_back(other);
    }
  }
  return out;
}

/// Asserts, for every node, that gather() returns exactly the oracle set
/// and that the indexed row and the snapshot row (built or patched, with
/// its hop distances) equal the naive scan.
void expect_gather_and_rows_exact(const Network& net) {
  const auto& snapshot = net.topology_snapshot();
  std::vector<NodeId> gathered;
  for (NodeId id = 0; id < net.size(); ++id) {
    gathered.clear();
    net.spatial_grid().gather(id, gathered);
    std::sort(gathered.begin(), gathered.end());
    ASSERT_EQ(gathered, gather_oracle(net, id)) << "gather of node " << id;
    const auto naive = net.neighbors_naive(id);
    ASSERT_EQ(net.neighbors(id), naive) << "indexed row of node " << id;
    const auto row = snapshot.row(id);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), naive.begin(),
                           naive.end()))
        << "snapshot row of node " << id;
    const auto hop = snapshot.row_distance(id);
    for (std::size_t k = 0; k < naive.size(); ++k) {
      ASSERT_EQ(hop[k], distance(net.node(id).pos, net.node(naive[k]).pos))
          << "hop distance " << id << " -> " << naive[k];
    }
  }
}

LinkClass radio_with_range(double range_m) {
  LinkClass radio = LinkClass::sensor_radio();
  radio.range_m = range_m;
  return radio;
}

NodeId add_at(Network& net, Vec3 pos, const LinkClass& radio) {
  NodeConfig config;
  config.kind = NodeKind::kSensor;
  config.radio = radio;
  config.pos = pos;
  config.unlimited_energy = true;
  return net.add_node(config);
}

TEST(SpatialGather, PairsExactlyAtRangeAreKeptAndOneUlpBeyondIsNot) {
  sim::Simulator sim;
  Network net(sim, common::Rng(1));
  const LinkClass radio = radio_with_range(25.0);
  struct Pair {
    NodeId a;
    NodeId b;
    bool in_range;
  };
  std::vector<Pair> pairs;
  // Anchors 1 km apart, so each pair is alone in its neighbourhood.  The
  // 3-4-5 triangle scaled to 25 m, in every orientation and across floors,
  // lies exactly at range; so do the axis-aligned offsets.
  const std::vector<Vec3> at_range = {
      {15.0, 20.0, 0.0}, {20.0, 15.0, 0.0},  {-15.0, -20.0, 0.0},
      {20.0, -15.0, 0.0}, {0.0, 25.0, 0.0},  {25.0, 0.0, 0.0},
      {0.0, 15.0, 20.0}, {15.0, 0.0, -20.0}, {0.0, 0.0, 25.0}};
  double x = 0.0;
  for (const Vec3& offset : at_range) {
    const Vec3 anchor{x, 500.0, 8.0};
    const NodeId a = add_at(net, anchor, radio);
    const NodeId b = add_at(net, anchor + offset, radio);
    ASSERT_EQ(distance(net.node(a).pos, net.node(b).pos), 25.0);
    pairs.push_back({a, b, true});
    x += 1000.0;
  }
  // One ulp beyond the range: the peer's coordinate on one axis is the
  // next double past the at-range one.
  for (int axis = 0; axis < 3; ++axis) {
    const Vec3 anchor{x, 500.0, 8.0};
    Vec3 peer = anchor + Vec3{axis == 0 ? 25.0 : 0.0, axis == 1 ? 25.0 : 0.0,
                              axis == 2 ? 25.0 : 0.0};
    double& coord = axis == 0 ? peer.x : axis == 1 ? peer.y : peer.z;
    coord = std::nextafter(coord, 1e9);
    const NodeId a = add_at(net, anchor, radio);
    const NodeId b = add_at(net, peer, radio);
    ASSERT_GT(distance(net.node(a).pos, net.node(b).pos), 25.0);
    pairs.push_back({a, b, false});
    x += 1000.0;
  }
  // Decimal coordinates: the same triangle from anchors that are not
  // binary fractions, so the computed distance lands on, just under or
  // just over 25 m depending on rounding.  Whatever it is, gather and
  // connected() must agree on it.
  std::size_t exact_decimal = 0;
  for (const double base : {0.1, 0.3, 0.7, 1.1, 2.9, 12.34, 98.76}) {
    const Vec3 anchor{x + base, 500.0 + base, 8.0 + base};
    const NodeId a = add_at(net, anchor, radio);
    const NodeId b = add_at(net, anchor + Vec3{15.0, 20.0, 0.0}, radio);
    const double d = distance(net.node(a).pos, net.node(b).pos);
    if (d == 25.0) ++exact_decimal;
    pairs.push_back({a, b, d <= 25.0});
    x += 1000.0;
  }
  EXPECT_GT(exact_decimal, 0u) << "no decimal pair lands exactly at range";

  expect_gather_and_rows_exact(net);
  for (const Pair& pair : pairs) {
    EXPECT_EQ(net.connected(pair.a, pair.b), pair.in_range)
        << pair.a << " - " << pair.b;
    const auto row = net.neighbors(pair.a);
    EXPECT_EQ(row.size() == 1 && row.front() == pair.b, pair.in_range)
        << "row of " << pair.a;
  }
}

TEST(SpatialGather, MixedRadiosFloorsAndWalkersStayExactThroughScopedEpochs) {
  sim::Simulator sim;
  Network net(sim, common::Rng(2));
  // Three floors of a 10 x 10 grid, 15 m apart, with 10 m, 25 m and
  // zero-range radios interleaved; two 100 m wifi nodes set the cell size.
  const LinkClass radios[] = {radio_with_range(10.0), radio_with_range(25.0),
                              radio_with_range(0.0), radio_with_range(25.0)};
  std::vector<NodeId> grid;
  for (int floor = 0; floor < 3; ++floor) {
    for (int row = 0; row < 10; ++row) {
      for (int col = 0; col < 10; ++col) {
        const Vec3 pos{15.0 * col, 15.0 * row, 4.0 * floor};
        grid.push_back(add_at(net, pos, radios[(row + col + floor) % 4]));
      }
    }
  }
  const LinkClass wifi = LinkClass::wifi();
  add_at(net, Vec3{0.0, 0.0, 0.0}, wifi);
  add_at(net, Vec3{135.0, 135.0, 8.0}, wifi);
  // Zero-range radios connect only to a node at the very same position: a
  // co-located zero-range twin and a co-located 25 m sensor.
  const NodeId zero_a = add_at(net, Vec3{60.0, 60.0, 4.0}, radios[2]);
  const NodeId zero_b = add_at(net, Vec3{60.0, 60.0, 4.0}, radios[2]);
  add_at(net, Vec3{60.0, 60.0, 4.0}, radios[1]);
  expect_gather_and_rows_exact(net);
  ASSERT_TRUE(net.connected(zero_a, zero_b));

  // Walkers with each short radio (and one of the zero-range twins) step
  // through the building, change floors, and stop exactly at range of a
  // stationary node and then one ulp beyond it.  Every step is its own
  // epoch and must take the scoped path.
  const TopologyStats before = net.topology_stats();
  const NodeId walkers[] = {grid[0], grid[1], zero_a, grid[103]};
  common::Rng steps(3);
  for (int step = 0; step < 24; ++step) {
    for (const NodeId w : walkers) {
      Vec3 pos = net.node(w).pos;
      pos.x = std::clamp(pos.x + steps.uniform(-6.0, 6.0), 0.0, 135.0);
      pos.y = std::clamp(pos.y + steps.uniform(-6.0, 6.0), 0.0, 135.0);
      if (step % 6 == 5) pos.z = 4.0 * double(steps.index(3));
      net.move_node(w, pos);
    }
    if (step % 8 == 3) net.set_node_up(grid[150 + step], false);
    if (step % 8 == 7) net.set_node_up(grid[150 + step - 4], true);
    expect_gather_and_rows_exact(net);
  }
  const NodeId anchor = grid[56];  // 25 m radio, stationary
  ASSERT_EQ(net.node(anchor).radio.range_m, 25.0);
  const Vec3 anchor_pos = net.node(anchor).pos;
  const double beyond = std::nextafter(anchor_pos.y + 20.0, 1e9) - anchor_pos.y;
  const std::pair<Vec3, bool> stops[] = {
      {{15.0, 20.0, 0.0}, true},   {{15.0, beyond, 0.0}, false},
      {{15.0, 20.0, 0.0}, true},   {{-20.0, -15.0, 0.0}, true},
      {{0.0, 0.0, 25.0}, true}};
  for (const auto& [offset, in_range] : stops) {
    net.move_node(grid[1], anchor_pos + offset);
    expect_gather_and_rows_exact(net);
    EXPECT_EQ(net.connected(anchor, grid[1]), in_range)
        << offset.x << ", " << offset.y << ", " << offset.z;
  }
  const TopologyStats& after = net.topology_stats();
  EXPECT_EQ(after.global_epochs, before.global_epochs)
      << "a walker step widened to a global epoch";
  EXPECT_EQ(after.scoped_epochs - before.scoped_epochs, 24u + 5u);
  EXPECT_EQ(after.snapshot_patches - before.snapshot_patches, 24u + 5u);
}

}  // namespace
}  // namespace pgrid::net
