// Topology acceleration layer: the data structures that keep topology
// queries off the network hot path.
//
// The paper's runtime is defined by "low bandwidth, high latency,
// disconnections and dynamic topology" (Section 1), which means every
// message pays for topology questions: who is in radio range, what is the
// route, is the mesh partitioned.  Asked naively those cost O(N) per
// neighbour query and O(N^2) per route, the quadratic floor under every
// large sweep.  Three structures remove it:
//
//  - SpatialGrid: an incremental spatial hash over wireless node positions
//    (cell size = the largest radio range seen), updated in place by
//    mobility moves instead of rebuilt, so a neighbour query inspects only
//    the 3x3x3 cell block around a node and returns only the nodes within
//    the querier's own range.
//  - TopologySnapshot: a CSR-style flat adjacency built lazily once per
//    (topology, liveness) version and shared by the route search, SinkTree
//    construction and flooding, so multi-node algorithms stop re-deriving
//    connectivity (distance + wired scan + fault-injector probe) per edge
//    per query.
//  - RouteCache: a bounded LRU of shortest-path results, valid for exactly
//    one (topology, liveness) version pair, so message bursts between the
//    same endpoints amortize one route search.
//
// None of these structures draws randomness or changes answers: they are
// exact accelerators over Network::connected(), and the property suite
// (tests/property_topology_test.cpp) holds them bit-identical to the naive
// scan / fresh-Dijkstra oracles under mobility, churn and chaos.
#pragma once

#include <cstdint>
#include <limits>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/geometry.hpp"
#include "net/ids.hpp"

namespace pgrid::net {

/// Cell quantization shared by the SpatialGrid and the sharding layer's
/// ShardMap (net/shard_map.hpp): floor-division cell coordinates and the
/// mixed 64-bit cell key.  The shard map assigns regions at this exact
/// granularity, so "same cell" means the same thing to the spatial index
/// and to the region partition.
std::int64_t spatial_cell_coord(double v, double cell_m);
std::uint64_t spatial_cell_key(std::int64_t cx, std::int64_t cy,
                               std::int64_t cz);
std::uint64_t spatial_cell_key(Vec3 pos, double cell_m);

/// Incremental spatial hash over wireless node positions.  Cells are cubes
/// of side >= the largest radio range indexed, so every pair within mutual
/// range lands in adjacent cells and gather() scans at most a 3x3x3 block.
/// Cell coordinates are hashed to 64-bit keys; a key collision merely
/// merges two buckets, and gather() filters members by distance anyway,
/// so the structure is correct for any coordinates.
class SpatialGrid {
 public:
  /// Indexes a wireless node.  Growing the observed maximum range rebuilds
  /// the grid with larger cells (rare: once per distinct radio class).
  void insert(NodeId id, Vec3 pos, double range_m);

  /// Moves an indexed node to a new position; no-op for unindexed ids.
  void move(NodeId id, Vec3 pos);

  /// Appends every other indexed node within `id`'s own range of `id`
  /// (`distance(pos_id, pos_peer) <= range_id`, on the stored positions)
  /// to `out`.  Connectivity requires d <= min(ra, rb) <= ra and computes
  /// d with the same distance() on the same positions, so the result is
  /// an exact superset of the peers Network::connected() accepts — with
  /// no slack constant.  Only the cells overlapping the box
  /// `pos ± range` are scanned (range <= cell size: at most a 3x3x3
  /// block, usually far fewer cells for short-range radios).  Unsorted;
  /// liveness, wired links and the peer's own range are left to the
  /// caller's exact check.
  void gather(NodeId id, std::vector<NodeId>& out) const;

  double cell_size_m() const { return cell_m_; }
  std::size_t indexed_count() const { return indexed_; }
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  struct Entry {
    Vec3 pos;
    double range_m = 0.0;
    std::uint64_t key = 0;
    bool indexed = false;
  };

  std::uint64_t key_of(Vec3 pos) const;
  void rebuild(double new_cell_m);
  void remove_from_bucket(std::uint64_t key, NodeId id);

  std::unordered_map<std::uint64_t, std::vector<NodeId>> cells_;
  std::vector<Entry> entries_;  ///< indexed by NodeId
  double cell_m_ = 0.0;
  std::size_t indexed_ = 0;
  std::uint64_t rebuilds_ = 0;
};

/// Flat CSR adjacency of the whole deployment at one (topology, liveness)
/// version: row(id) lists the nodes directly reachable from `id`, in
/// ascending id order (the iteration-order contract of
/// Network::neighbors()), with the matching hop distances alongside for
/// the route search's distance tie-break.  Built lazily by
/// Network::topology_snapshot(); any topology bump or battery death
/// invalidates it.
struct TopologySnapshot {
  std::uint64_t topology_version = 0;
  std::uint64_t liveness_version = 0;
  std::vector<std::uint32_t> offsets;  ///< size() + 1 entries
  std::vector<NodeId> adjacency;       ///< ascending ids per row
  std::vector<double> hop_distance;    ///< parallel to adjacency

  std::size_t size() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t edge_count() const { return adjacency.size(); }

  std::span<const NodeId> row(NodeId id) const {
    if (id + 1 >= offsets.size()) return {};
    return {adjacency.data() + offsets[id],
            adjacency.data() + offsets[id + 1]};
  }
  std::span<const double> row_distance(NodeId id) const {
    if (id + 1 >= offsets.size()) return {};
    return {hop_distance.data() + offsets[id],
            hop_distance.data() + offsets[id + 1]};
  }
};

/// Reusable per-network scratch for the layered route search
/// (net::shortest_path).  Each search reserves a fresh stamp range
/// [first, last] and stamps a node `first + hop count` when it reaches it,
/// so every stamp left by an earlier search reads as unreached: a search
/// touches only the nodes it reaches and never clears an O(n) array.  The
/// stamps are re-zeroed only when the 32-bit range runs out.
struct RouteScratch {
  struct Slot {
    std::uint32_t stamp = 0;
    NodeId prev = kInvalidNode;
    double dist = 0.0;  ///< total distance along the chosen path
  };

  std::uint32_t first = 0;  ///< stamp of the current search's source
  std::uint32_t last = 0;   ///< highest stamp the current search may use
  std::vector<Slot> slots;  ///< indexed by NodeId
  std::vector<NodeId> layer;  ///< nodes settled at the current hop count
  std::vector<NodeId> next;   ///< nodes discovered one hop further

  /// Starts a search over `n` nodes (growing the slots if needed); hop
  /// counts stay below n, so the search needs at most n stamps.
  void begin(std::size_t n) {
    if (slots.size() < n) slots.resize(n);
    const auto span = static_cast<std::uint32_t>(n);
    if (last > std::numeric_limits<std::uint32_t>::max() - span - 1) {
      for (Slot& slot : slots) slot.stamp = 0;
      last = 0;
    }
    first = last + 1;
    last = first + span;
  }
  bool reached(NodeId id) const { return slots[id].stamp >= first; }
  std::uint32_t hops(NodeId id) const { return slots[id].stamp - first; }
};

/// Bounded LRU cache of shortest-path results, keyed by (src, dst) and
/// valid for exactly one (topology, liveness) version pair.  On a scoped
/// topology epoch (DESIGN.md S26) the network calls advance_epoch() with
/// the set of dirty rows, and only the entries a change could possibly
/// affect are dropped; a global epoch (or any version change it was not
/// told about) empties it wholesale.  Failed lookups (empty
/// routes) are cached too: "no route" is as deterministic as a route, and
/// recomputing it is the most expensive route search of all.
class RouteCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;  ///< whole-cache clears (version bumps)
    std::uint64_t scoped_epochs = 0;  ///< advance_epoch() scoped applications
    std::uint64_t routes_dropped = 0;  ///< entries killed by a scoped epoch
    std::uint64_t routes_kept = 0;     ///< entries surviving a scoped epoch
    std::uint64_t revalidation_failures = 0;  ///< hits rejected by route recheck
  };

  explicit RouteCache(std::size_t capacity = 1024)
      : capacity_(capacity ? capacity : 1) {}

  /// The cached route for src -> dst at the given versions, or nullptr.
  /// The pointer is valid until the next insert() or find() call.
  const std::vector<NodeId>* find(NodeId src, NodeId dst,
                                  std::uint64_t topology_version,
                                  std::uint64_t liveness_version);

  void insert(NodeId src, NodeId dst, std::uint64_t topology_version,
              std::uint64_t liveness_version, std::vector<NodeId> route);

  /// Scoped invalidation for one incremental topology epoch.  `dirty_flag`
  /// marks the nodes whose adjacency rows changed between the (from, to)
  /// version pairs; `dist_to_dirty` is the hop distance from every node to
  /// the nearest dirty node in the NEW graph (kUnreachable when none).
  /// An entry survives only when the fresh Dijkstra provably returns the
  /// identical answer:
  ///  - a non-empty route survives iff no route node is dirty AND
  ///    dist[src] + dist[dst] > hops — any fresh path through the changed
  ///    region is then strictly worse, so the optimum (and its tie-break)
  ///    lies entirely in the untouched subgraph;
  ///  - a cached "no route" survives unless both endpoints can now reach
  ///    the dirty set (a path can only have appeared through changed rows).
  /// If the cache's versions do not match `from` (a missed epoch), the
  /// whole cache is cleared, as on a global epoch.
  static constexpr std::uint32_t kUnreachable =
      std::numeric_limits<std::uint32_t>::max();
  void advance_epoch(std::uint64_t from_topology, std::uint64_t from_liveness,
                     std::uint64_t to_topology, std::uint64_t to_liveness,
                     const std::vector<char>& dirty_flag,
                     const std::vector<std::uint32_t>& dist_to_dirty);

  /// Books a hit whose route failed the per-hop revalidation check (the
  /// caller recomputes; see cached_shortest_path).
  void note_revalidation_failure() { ++stats_.revalidation_failures; }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

 private:
  using LruList = std::list<std::pair<std::uint64_t, std::vector<NodeId>>>;

  static std::uint64_t key_of(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  void sync_version(std::uint64_t topology_version,
                    std::uint64_t liveness_version);

  std::size_t capacity_;
  std::uint64_t topology_version_ = 0;
  std::uint64_t liveness_version_ = 0;
  bool has_version_ = false;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, LruList::iterator> map_;
  Stats stats_;
};

}  // namespace pgrid::net
