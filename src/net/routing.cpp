#include "net/routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

namespace pgrid::net {

namespace {

constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

}  // namespace

std::vector<NodeId> shortest_path(const Network& network, NodeId src,
                                  NodeId dst) {
  const std::size_t n = network.size();
  if (src >= n || dst >= n || !network.alive(src) || !network.alive(dst)) {
    return {};
  }
  if (src == dst) return {src};

  // Hops dominate the cost, so nodes settle one BFS layer at a time and no
  // heap is needed.  Within a layer the predecessor of v is the previous-
  // layer neighbour u minimising (g(u) + d(u, v), g(u), u): exactly the
  // relaxation that wins first in the heap's (hops, distance, id) pop order.
  const TopologySnapshot& topo = network.topology_snapshot();
  RouteScratch& scratch = network.route_scratch();
  scratch.begin(n);
  auto& slots = scratch.slots;
  slots[src] = {scratch.first, kInvalidNode, 0.0};
  scratch.layer.assign(1, src);
  std::uint32_t stamp = scratch.first;  // first + hop count of the frontier
  while (!scratch.layer.empty() && !scratch.reached(dst)) {
    ++stamp;
    scratch.next.clear();
    for (NodeId u : scratch.layer) {
      const double gu = slots[u].dist;
      const auto row = topo.row(u);
      const auto dist = topo.row_distance(u);
      for (std::size_t i = 0; i < row.size(); ++i) {
        const NodeId v = row[i];
        const double g = gu + dist[i];
        RouteScratch::Slot& slot = slots[v];
        if (!scratch.reached(v)) {
          slot = {stamp, u, g};
          scratch.next.push_back(v);
        } else if (slot.stamp == stamp &&
                   std::tie(g, gu, u) <
                       std::tie(slot.dist, slots[slot.prev].dist, slot.prev)) {
          slot.prev = u;
          slot.dist = g;
        }
      }
    }
    scratch.layer.swap(scratch.next);
  }
  if (!scratch.reached(dst)) return {};
  std::vector<NodeId> route(scratch.hops(dst) + 1);
  NodeId at = dst;
  for (std::size_t i = route.size(); i-- > 0; at = slots[at].prev) {
    route[i] = at;
  }
  return route;
}

std::vector<NodeId> shortest_path_naive(const Network& network, NodeId src,
                                        NodeId dst) {
  const std::size_t n = network.size();
  if (src >= n || dst >= n || !network.alive(src) || !network.alive(dst)) {
    return {};
  }
  if (src == dst) return {src};

  using Cost = std::pair<std::size_t, double>;
  std::vector<Cost> best(n, {kUnreachable, 0.0});
  std::vector<NodeId> prev(n, kInvalidNode);
  using QueueEntry = std::pair<Cost, NodeId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
  best[src] = {0, 0.0};
  pq.push({{0, 0.0}, src});

  while (!pq.empty()) {
    auto [cost, at] = pq.top();
    pq.pop();
    if (cost > best[at]) continue;
    if (at == dst) break;
    for (NodeId next : network.neighbors_naive(at)) {
      const double d = distance(network.node(at).pos, network.node(next).pos);
      Cost candidate{cost.first + 1, cost.second + d};
      if (candidate < best[next]) {
        best[next] = candidate;
        prev[next] = at;
        pq.push({candidate, next});
      }
    }
  }

  if (best[dst].first == kUnreachable) return {};
  std::vector<NodeId> route;
  for (NodeId at = dst; at != kInvalidNode; at = prev[at]) {
    route.push_back(at);
    if (at == src) break;
  }
  std::reverse(route.begin(), route.end());
  if (route.front() != src) return {};
  return route;
}

std::vector<NodeId> cached_shortest_path(const Network& network, NodeId src,
                                         NodeId dst) {
  // Under incremental epochs any pending delta must be applied before the
  // cache is consulted, so find()'s version check sees current versions
  // and scoped survivors are served instead of flushed (no-op otherwise).
  network.sync_topology_caches();
  RouteCache& cache = network.route_cache();
  const std::uint64_t topo = network.topology_version();
  const std::uint64_t live = network.liveness_version();
  if (const std::vector<NodeId>* hit = cache.find(src, dst, topo, live)) {
    if (!network.incremental_topology()) return *hit;
    // Cheap insurance on the scoped-survivor path: re-check every hop of
    // the cached route against live connectivity.  The epoch rules make
    // survivors provably fresh, so a failure here marks an invalidation
    // bug — the recompute below restores correctness and counts it.
    bool intact = true;
    for (std::size_t i = 0; i + 1 < hit->size(); ++i) {
      if (!network.connected((*hit)[i], (*hit)[i + 1])) {
        intact = false;
        break;
      }
    }
    if (hit->size() == 1 && !network.alive((*hit)[0])) intact = false;
    if (intact) return *hit;
    cache.note_revalidation_failure();
  }
  std::vector<NodeId> route = shortest_path(network, src, dst);
  cache.insert(src, dst, topo, live, route);
  return route;
}

SinkTree::SinkTree(const Network& network, NodeId sink)
    : sink_(sink),
      parent_(network.size(), kInvalidNode),
      children_(network.size()),
      depth_(network.size(), kUnreachable),
      version_(network.topology_version()) {
  if (sink >= network.size() || !network.alive(sink)) return;
  const TopologySnapshot& topo = network.topology_snapshot();
  depth_[sink] = 0;
  order_.push_back(sink);
  std::queue<NodeId> frontier;
  frontier.push(sink);
  while (!frontier.empty()) {
    const NodeId at = frontier.front();
    frontier.pop();
    // Deterministic child order: snapshot rows are in ascending id order,
    // exactly like neighbors().
    for (NodeId next : topo.row(at)) {
      if (depth_[next] != kUnreachable) continue;
      depth_[next] = depth_[at] + 1;
      if (depth_[next] > max_depth_) max_depth_ = depth_[next];
      parent_[next] = at;
      children_[at].push_back(next);
      order_.push_back(next);
      frontier.push(next);
    }
  }
}

bool SinkTree::contains(NodeId id) const {
  return id < depth_.size() && depth_[id] != kUnreachable;
}

NodeId SinkTree::parent(NodeId id) const {
  return id < parent_.size() ? parent_[id] : kInvalidNode;
}

const std::vector<NodeId>& SinkTree::children(NodeId id) const {
  static const std::vector<NodeId> kEmpty;
  return id < children_.size() ? children_[id] : kEmpty;
}

std::size_t SinkTree::depth(NodeId id) const {
  return id < depth_.size() ? depth_[id] : kUnreachable;
}

std::vector<NodeId> SinkTree::route_to_sink(NodeId id) const {
  if (!contains(id)) return {};
  std::vector<NodeId> route;
  for (NodeId at = id; at != kInvalidNode; at = parent_[at]) {
    route.push_back(at);
    if (at == sink_) break;
  }
  if (route.back() != sink_) return {};
  return route;
}

}  // namespace pgrid::net
