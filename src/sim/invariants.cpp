#include "sim/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

namespace pgrid::sim {

namespace {

bool close_rel(double a, double b, double rel = 1e-6) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= rel * scale;
}

}  // namespace

std::optional<std::string> check_ledger_conservation(
    const telemetry::CostLedger& ledger) {
  telemetry::TraceCosts sum;
  for (telemetry::TraceId id : ledger.trace_ids()) {
    sum += ledger.trace(id);
  }
  const telemetry::TraceCosts& totals = ledger.totals();
  for (std::size_t i = 0; i < telemetry::kSubsystemCount; ++i) {
    const auto subsystem = static_cast<telemetry::Subsystem>(i);
    const telemetry::Cost& t = totals[subsystem];
    const telemetry::Cost& s = sum[subsystem];
    std::ostringstream out;
    if (t.bytes != s.bytes || t.count != s.count) {
      out << to_string(subsystem) << ": totals{bytes=" << t.bytes
          << ",count=" << t.count << "} != trace-sum{bytes=" << s.bytes
          << ",count=" << s.count << "}";
      return out.str();
    }
    if (!close_rel(t.joules, s.joules) || !close_rel(t.ops, s.ops) ||
        !close_rel(t.sim_seconds, s.sim_seconds)) {
      out << to_string(subsystem) << ": totals{joules=" << t.joules
          << ",ops=" << t.ops << ",sim_seconds=" << t.sim_seconds
          << "} != trace-sum{joules=" << s.joules << ",ops=" << s.ops
          << ",sim_seconds=" << s.sim_seconds << "}";
      return out.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_no_open_spans(
    const telemetry::CostLedger& ledger) {
  if (ledger.open_spans() != 0) {
    std::ostringstream out;
    out << ledger.open_spans() << " span(s) still open after quiesce";
    return out.str();
  }
  return std::nullopt;
}

std::optional<std::string> check_kernel_pending_exact(Simulator& simulator) {
  const std::size_t before = simulator.pending();
  // Far-future no-ops: they never fire because the probe cancels them
  // before returning, so the probe is invisible to the run.
  const SimTime far = simulator.now() + SimTime::seconds(1e9);
  EventHandle probes[3];
  for (auto& probe : probes) {
    probe = simulator.schedule_at(far, [] {});
  }
  std::ostringstream out;
  if (simulator.pending() != before + 3) {
    out << "pending() " << simulator.pending() << " after 3 schedules, "
        << "expected " << before + 3;
    for (auto& probe : probes) simulator.cancel(probe);
    return out.str();
  }
  for (auto& probe : probes) {
    if (!simulator.cancel(probe)) {
      out << "cancel() rejected a live probe handle";
      return out.str();
    }
  }
  if (simulator.pending() != before) {
    out << "pending() " << simulator.pending()
        << " after cancelling the probes, expected " << before;
    return out.str();
  }
  if (simulator.cancel(probes[0])) {
    out << "cancel() accepted an already-cancelled handle";
    return out.str();
  }
  return std::nullopt;
}

std::optional<std::string> check_sink_tree_consistent(
    const net::Network& network, net::NodeId sink) {
  const net::SinkTree tree(network, sink);
  const std::size_t n = network.size();
  std::ostringstream out;
  for (net::NodeId id : tree.bfs_order()) {
    if (id == sink) continue;
    const net::NodeId parent = tree.parent(id);
    if (parent == net::kInvalidNode) {
      out << "node " << id << " is in the tree but has no parent";
      return out.str();
    }
    if (tree.depth(id) != tree.depth(parent) + 1) {
      out << "node " << id << " depth " << tree.depth(id)
          << " != parent " << parent << " depth " << tree.depth(parent)
          << " + 1";
      return out.str();
    }
    if (!network.connected(parent, id)) {
      out << "tree edge " << parent << " -> " << id
          << " is not connected in the current topology";
      return out.str();
    }
    // Acyclicity: the parent chain must reach the sink within n hops.
    net::NodeId walk = id;
    std::size_t hops = 0;
    while (walk != sink && hops <= n) {
      walk = tree.parent(walk);
      ++hops;
      if (walk == net::kInvalidNode) {
        out << "parent chain from node " << id << " dead-ends before the sink";
        return out.str();
      }
    }
    if (walk != sink) {
      out << "parent chain from node " << id << " cycles (exceeded " << n
          << " hops)";
      return out.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_topology_caches_fresh(
    const net::Network& network) {
  std::ostringstream out;
  const net::TopologySnapshot& snapshot = network.topology_snapshot();
  for (net::NodeId id = 0; id < network.size(); ++id) {
    const std::vector<net::NodeId> naive = network.neighbors_naive(id);
    const auto row = snapshot.row(id);
    if (!std::equal(row.begin(), row.end(), naive.begin(), naive.end())) {
      out << "snapshot row of node " << id << " has " << row.size()
          << " neighbour(s), the naive scan " << naive.size();
      return out.str();
    }
  }
  const auto failures = network.route_cache().stats().revalidation_failures;
  if (failures != 0) {
    out << failures << " cached route(s) failed per-hop revalidation";
    return out.str();
  }
  return std::nullopt;
}

std::optional<std::string> check_chaos_quiescent(const ChaosEngine& engine) {
  if (!engine.quiescent()) {
    std::ostringstream out;
    out << engine.active_count()
        << " fault window(s) still active after the run drained";
    return out.str();
  }
  return std::nullopt;
}

}  // namespace pgrid::sim
