// End-to-end reliability layer over the simulated network: acked unicast
// with retransmission, deadline budgets, and circuit breakers.
//
// The paper's runtime must operate through "frequent disconnections, low
// bandwidth, high latency and network topology changes" (Section 1) and the
// composition platform "should degrade gracefully as more and more of the
// smart devices fail" (Section 3).  The base Network is deliberately
// fire-and-forget (link-layer retries only); this layer adds the transport
// discipline on top:
//
//   - ReliableChannel: per-hop data/ACK cycles with exponential backoff and
//     deterministic seeded jitter, a bounded in-flight window per endpoint
//     pair, per-transfer duplicate suppression at each receiver, and
//     breaker-aware re-routing around failing links.  Every retransmission
//     is charged to the ledger under the originating trace (the kernel
//     propagates the trace along the causal event chain).
//   - Budget: an absolute deadline carried down the causal chain (executor
//     -> composition -> agents -> sensornet), so retries and re-discovery
//     stop the moment the budget is blown instead of burning energy past
//     the point of usefulness.
//   - BreakerRegistry: circuit breakers keyed on a link or a provider.
//     Repeated failures open the breaker; while open, traffic short-circuits
//     (re-routes or re-binds instead of hammering the dead resource); a
//     deterministic half-open probe closes it after healing.
//
// Everything is deterministic given the channel's seed: same seed, same
// fault schedule => bit-identical retransmit schedules and outcomes.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "common/small_fn.hpp"
#include "net/network.hpp"

namespace pgrid::net {

/// A deadline budget: the absolute simulated time by which the work it
/// governs must finish.  Passing the same Budget down a causal chain is the
/// "decrement": every layer sees the remaining time shrink as now advances.
struct Budget {
  sim::SimTime deadline{std::numeric_limits<std::int64_t>::max()};

  static constexpr Budget unlimited() { return Budget{}; }
  static constexpr Budget until(sim::SimTime when) { return Budget{when}; }

  constexpr bool bounded() const {
    return deadline.us != std::numeric_limits<std::int64_t>::max();
  }
  constexpr bool expired(sim::SimTime now) const {
    return bounded() && now >= deadline;
  }
  /// Remaining span (clamped at zero); unbounded budgets report the max.
  constexpr sim::SimTime remaining(sim::SimTime now) const {
    if (!bounded()) return deadline;
    return now >= deadline ? sim::SimTime::zero() : deadline - now;
  }
  /// The tighter of two budgets.
  constexpr Budget tightened(Budget other) const {
    return deadline <= other.deadline ? *this : other;
  }
  /// Clamps a relative timeout so it never extends past the deadline.
  constexpr sim::SimTime clamp(sim::SimTime now, sim::SimTime span) const {
    if (!bounded()) return span;
    const sim::SimTime left = remaining(now);
    return span <= left ? span : left;
  }
};

// ---------------------------------------------------------------------------
// Circuit breakers
// ---------------------------------------------------------------------------

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct BreakerConfig {
  /// Consecutive failures that trip a closed breaker open.
  std::size_t failure_threshold = 3;
  /// Cooling period after tripping; a failed half-open probe escalates it.
  sim::SimTime open_for = sim::SimTime::seconds(4.0);
  double open_backoff = 2.0;
  sim::SimTime max_open_for = sim::SimTime::seconds(32.0);
};

struct BreakerStats {
  std::uint64_t opens = 0;           ///< closed->open trips + failed probes
  std::uint64_t closes = 0;          ///< successful half-open probes
  std::uint64_t probes = 0;          ///< half-open admissions granted
  std::uint64_t short_circuits = 0;  ///< admissions refused while open
};

/// Circuit breakers keyed on an arbitrary resource id (a link pair key, a
/// provider name).  Purely time-driven and deterministic: state transitions
/// happen inside admit()/record_*() calls, never from timers.  While open,
/// admit() refuses; once the cooling period elapses the next admit() grants
/// exactly one half-open probe — its success closes the breaker, its
/// failure re-opens with an escalated cooling period.
template <typename Key>
class BreakerRegistry {
 public:
  explicit BreakerRegistry(BreakerConfig config = {}) : config_(config) {}

  /// Non-mutating classification at `now` (open breakers past their cooling
  /// period report kHalfOpen: the next admit() would grant a probe).
  BreakerState state(const Key& key, sim::SimTime now) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return BreakerState::kClosed;
    const Entry& e = it->second;
    if (e.state == BreakerState::kOpen && now >= e.reopen_at) {
      return BreakerState::kHalfOpen;
    }
    return e.state;
  }

  /// May the caller use the resource right now?  Half-open grants a single
  /// probe; further admits short-circuit until the probe resolves.
  bool admit(const Key& key, sim::SimTime now) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return true;
    Entry& e = it->second;
    switch (e.state) {
      case BreakerState::kClosed:
        return true;
      case BreakerState::kOpen:
        if (now < e.reopen_at) {
          ++stats_.short_circuits;
          return false;
        }
        e.state = BreakerState::kHalfOpen;
        e.probe_in_flight = true;
        ++stats_.probes;
        return true;
      case BreakerState::kHalfOpen:
        if (e.probe_in_flight) {
          ++stats_.short_circuits;
          return false;
        }
        e.probe_in_flight = true;
        ++stats_.probes;
        return true;
    }
    return true;
  }

  void record_success(const Key& key, sim::SimTime now) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    Entry& e = it->second;
    if (e.state == BreakerState::kHalfOpen ||
        (e.state == BreakerState::kOpen && now >= e.reopen_at)) {
      // Healed: drop the entry entirely so a future trip starts from the
      // base cooling period again.
      ++stats_.closes;
      entries_.erase(it);
      return;
    }
    if (e.state == BreakerState::kClosed) e.failures = 0;
  }

  void record_failure(const Key& key, sim::SimTime now) {
    Entry& e = entries_[key];
    if (e.state == BreakerState::kHalfOpen ||
        (e.state == BreakerState::kOpen && now >= e.reopen_at)) {
      // Failed probe: re-open with an escalated cooling period.
      e.state = BreakerState::kOpen;
      e.probe_in_flight = false;
      e.open_for = escalate(e.open_for);
      e.reopen_at = now + e.open_for;
      ++stats_.opens;
      return;
    }
    if (e.state == BreakerState::kOpen) return;  // still cooling
    ++e.failures;
    if (e.failures >= config_.failure_threshold) {
      e.state = BreakerState::kOpen;
      e.open_for = config_.open_for;
      e.reopen_at = now + e.open_for;
      ++stats_.opens;
    }
  }

  std::size_t open_count(sim::SimTime now) const {
    std::size_t count = 0;
    for (const auto& [key, e] : entries_) {
      if (e.state != BreakerState::kClosed && now < e.reopen_at) ++count;
    }
    return count;
  }

  const BreakerStats& stats() const { return stats_; }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    BreakerState state = BreakerState::kClosed;
    std::size_t failures = 0;  ///< consecutive, while closed
    sim::SimTime reopen_at{};
    sim::SimTime open_for{};
    bool probe_in_flight = false;
  };

  sim::SimTime escalate(sim::SimTime current) const {
    if (current.us <= 0) return config_.open_for;
    auto next = sim::SimTime::seconds(current.to_seconds() *
                                      config_.open_backoff);
    return next <= config_.max_open_for ? next : config_.max_open_for;
  }

  BreakerConfig config_;
  // Ordered map: iteration (open_count, diagnostics) is deterministic.
  std::map<Key, Entry> entries_;
  BreakerStats stats_;
};

/// Canonical key for an undirected link (same convention as the network's
/// wired-link index).
inline std::uint64_t link_key(NodeId a, NodeId b) {
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

// ---------------------------------------------------------------------------
// Reliable channel
// ---------------------------------------------------------------------------

struct ReliableConfig {
  /// Wire size of an acknowledgement frame.
  std::uint64_t ack_bytes = 12;
  /// Data/ACK cycles attempted per hop before the route is abandoned.
  std::size_t hop_attempts = 5;
  /// Exponential backoff between retransmissions of the same hop.
  sim::SimTime initial_backoff = sim::SimTime::milliseconds(50);
  double backoff_factor = 2.0;
  sim::SimTime max_backoff = sim::SimTime::seconds(2.0);
  /// Uniform jitter applied to every backoff, as a fraction (0.25 = +/-25%).
  /// Drawn from the channel's own seeded rng: deterministic, and decorrelates
  /// retransmit bursts from concurrent transfers.
  double jitter = 0.25;
  /// In-flight messages allowed per (src, dst) pair; excess sends queue.
  std::size_t window = 4;
  /// Route recomputations per message when the budget is unlimited (bounded
  /// budgets instead re-route until the deadline).
  std::size_t max_reroutes = 3;
  /// Local route repair radius (hops).  When a hop exhausts its attempts, a
  /// bounded-depth BFS from the current holder first tries to splice around
  /// the dead/moved hop back onto the remaining route — directed-diffusion
  /// style local repair — before paying a full breaker-aware rediscovery.
  /// 0 (the default) disables repair: the reroute path is bit-identical to
  /// the pre-repair build.
  std::size_t repair_depth = 0;
  BreakerConfig breaker;
};

struct ReliableStats {
  std::uint64_t messages = 0;        ///< sends accepted (unicast + acked hop)
  std::uint64_t delivered = 0;       ///< done(true) outcomes
  std::uint64_t failed = 0;          ///< done(false) outcomes
  std::uint64_t expired = 0;         ///< failures charged to a blown budget
  std::uint64_t data_frames = 0;     ///< data transmissions incl. retransmits
  std::uint64_t ack_frames = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_suppressed = 0;  ///< re-received after lost ACK
  std::uint64_t reroutes = 0;
  std::uint64_t local_repairs = 0;   ///< reroutes resolved by a splice
  std::uint64_t queued = 0;          ///< sends deferred by the window
};

/// Acked delivery over the existing Network send path.  See the file
/// comment for the model; the channel is orthogonal to the fault injector
/// (chaos faults hit the underlying transmits) and charges every frame —
/// including retransmissions and ACKs — to the ledger under the trace that
/// originated the send.
class ReliableChannel {
 public:
  using DeliverCallback = common::SmallFn<void(bool delivered)>;
  /// Test hook: fires once per message the instant its payload is first
  /// accepted at the destination (duplicates suppressed) — the witness for
  /// the exactly-once property.
  using DeliveryProbe = std::function<void(NodeId dst, std::uint64_t seq)>;

  ReliableChannel(Network& network, ReliableConfig config, common::Rng rng);

  /// Reliable unicast src -> dst: routes over the current topology, runs a
  /// data/ACK cycle per hop with backoff retransmission, re-routes around
  /// hops that exhaust their attempts (avoiding open-breaker links), and
  /// gives up when the budget expires.  `done` fires exactly once.
  void unicast(NodeId src, NodeId dst, std::uint64_t bytes, Budget budget,
               DeliverCallback done);

  /// Single-hop acked transfer (no routing, no reroute): the tree
  /// aggregation's parent links use this.
  void acked_transmit(NodeId from, NodeId to, std::uint64_t bytes,
                      Budget budget, DeliverCallback done);

  BreakerRegistry<std::uint64_t>& link_breakers() { return breakers_; }
  const BreakerRegistry<std::uint64_t>& link_breakers() const {
    return breakers_;
  }
  const ReliableStats& stats() const { return stats_; }
  const ReliableConfig& config() const { return config_; }
  Network& network() { return network_; }
  void set_delivery_probe(DeliveryProbe probe) { probe_ = std::move(probe); }

  /// Transfers accepted but not yet finished (window-queued ones included).
  /// A drained simulation reads zero: every transfer ends in finish().
  std::size_t in_flight() const { return slab_.size() - free_.size(); }
  /// Transfer slots held: the in-flight high-water mark since the channel
  /// last drained (then at most kIdleSlots).  Finished transfers return
  /// their slot to a free list and later sends reuse it.
  std::size_t transfer_slots() const { return slab_.size(); }
  /// Slots a drained channel keeps for its next sends.
  static constexpr std::size_t kIdleSlots = 8;

 private:
  /// One message's state machine, living in a slab slot from acceptance to
  /// finish().  Recycled slots keep their `route` / `accepted` capacity.
  struct Transfer {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;
    Budget budget;
    DeliverCallback done;
    telemetry::TraceId trace = 0;
    std::vector<NodeId> route;
    std::uint32_t hop = 0;      ///< index of the node currently holding it
    std::uint32_t attempt = 0;  ///< data/ACK cycles tried on the current hop
    std::uint32_t reroutes = 0;
    bool single_hop = false;  ///< acked_transmit: fixed route, no reroute
    /// Receivers that already accepted this payload.  `seq` is unique per
    /// transfer, so this is exactly the (seq, receiver) duplicate set, and
    /// it is cleared when the slot is reused.
    std::vector<NodeId> accepted;
  };

  /// Window key of a routed transfer (directed src->dst).
  static std::uint64_t pair_key(const Transfer& t) {
    return (static_cast<std::uint64_t>(t.src) << 32) | t.dst;
  }

  struct PairState {
    std::size_t in_flight = 0;
    std::deque<Transfer*> waiting;
  };

  /// A free slot reset for a new message (allocates only past the
  /// high-water mark; std::deque keeps slot addresses stable).
  Transfer& acquire(NodeId src, NodeId dst, std::uint64_t bytes,
                    Budget budget, DeliverCallback done);
  void admit_or_queue(Transfer& t);
  void begin(Transfer& t);
  void hop_cycle(Transfer& t);
  void retry_or_abandon(Transfer& t);
  void route_failed(Transfer& t);
  /// The transfer's single exit: frees its window slot, returns it to the
  /// slab, then fires `done`.  Callers must not touch `t` afterwards
  /// (`done` may re-enter and reuse the slot).
  void finish(Transfer& t, bool delivered);
  /// First acceptance of the payload at `node`?  (False => duplicate,
  /// re-ACK only.)
  static bool accept(Transfer& t, NodeId node);
  sim::SimTime backoff_delay(std::size_t attempt);
  /// Min-hop BFS over the topology snapshot, skipping links whose breaker
  /// is open (cooling).  Deterministic: ascending-id adjacency rows.
  std::vector<NodeId> route_avoiding_open(NodeId src, NodeId dst,
                                          sim::SimTime now) const;
  /// Local repair (ReliableConfig::repair_depth): bounded-depth BFS from
  /// the current holder `at`, avoiding open breakers, the already-visited
  /// route prefix and the link that just failed, targeting any node on the
  /// remaining route (minimal depth, then the target furthest along the
  /// route).  Returns bridge + remaining suffix, or empty when no splice
  /// exists within the radius.
  std::vector<NodeId> splice_route(const Transfer& t, NodeId at,
                                   sim::SimTime now) const;

  Network& network_;
  ReliableConfig config_;
  common::Rng rng_;
  BreakerRegistry<std::uint64_t> breakers_;
  ReliableStats stats_;
  DeliveryProbe probe_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, PairState> pairs_;
  std::deque<Transfer> slab_;
  std::vector<Transfer*> free_;
};

}  // namespace pgrid::net
