// Flow-level network fast path: an analytic second fidelity tier.
//
// The packet tier (Network::transmit / send_route) schedules one event per
// link-layer hop — exact, but the event count is O(hops * messages) and the
// EXP-N1 sweeps top out around N=6400.  SimGrid answered the same scale gap
// with analytic flow/fluid models: compute a whole transfer's latency,
// energy and outcome in closed form and commit it as a single event.  This
// module is that tier for our network:
//
//   - FlowModel::send_flow resolves an entire route analytically from the
//     CSR TopologySnapshot world: per hop, the expected number of
//     link-layer attempts under the truncated-retry loss model, the
//     radio-model energy at that expectation, and the hop success
//     probability; one inverse-CDF draw from the model's own rng stream
//     decides the delivery outcome (and the failing hop), and ONE simulator
//     event fires the completion callback.
//   - Links are contention-free, exactly as in the packet tier, so the two
//     tiers stay calibrated against each other.
//   - Fidelity: an installed FaultInjector forces the whole deployment to
//     the packet tier, and a ReliableChannel routes everything it carries
//     packet-level (its senders never reach send_route), so chaos and
//     reliability semantics stay exact where they matter.
//   - Flow plans (per-hop expectations for a (src, dst, bytes) triple) are
//     cached under the same (topology, liveness) version discipline as the
//     RouteCache: mobility, churn, chaos installation and battery death all
//     invalidate analytic state exactly when they invalidate routes.
//
// Kill switch: a Network with no FlowModel installed (RuntimeConfig::flow
// disabled) runs the packet paths byte-for-byte unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"

namespace pgrid::net {

class SinkTree;

/// Flow-tier knobs (RuntimeConfig::flow).
struct FlowConfig {
  /// Master kill switch.  Disabled => no FlowModel is constructed and every
  /// packet path runs bit-identically to the pre-flow build.
  bool enabled = false;
};

/// Diagnostics for the flow tier.
struct FlowStats {
  std::uint64_t flows = 0;             ///< send_flow transfers accepted
  std::uint64_t delivered = 0;         ///< flows that reached their sink
  std::uint64_t failed = 0;            ///< flows that failed en route
  std::uint64_t analytic_hops = 0;     ///< hops resolved without an event
  std::uint64_t tree_epochs = 0;       ///< whole-subtree TAG collections
  std::uint64_t packet_fallbacks = 0;  ///< eligibility misses (packet tier)
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t plan_invalidations = 0;  ///< version-bump cache clears
  std::uint64_t plan_scoped_epochs = 0;  ///< scoped (delta) plan syncs
  std::uint64_t plans_dropped = 0;       ///< plans killed by a scoped epoch
  std::uint64_t plans_kept = 0;          ///< plans surviving a scoped epoch
  /// Sum of analytic per-hop attempt expectations.  The packet tier counts
  /// every retry in NetworkStats::transmissions / bytes_sent; the flow tier
  /// counts each hop once and keeps the expected-retry mass here.
  double expected_attempts = 0.0;
};

/// The analytic fidelity tier.  Non-owning over the Network; install with
/// Network::set_flow_model.  All randomness flows through the model's own
/// seeded rng stream, so enabling the tier never perturbs the packet tier's
/// draws (the kill-switch identity) and runs replay bit-identically.
class FlowModel {
 public:
  using RouteCallback = Network::RouteCallback;

  /// Analytic outcome of one hop at the current topology.
  struct HopOutcome {
    sim::SimTime latency;           ///< expected service time
    sim::SimTime base_latency;      ///< single-attempt transfer time
    double loss_p = 0.0;            ///< per-attempt frame loss probability
    double success_p = 1.0;         ///< P(delivery within the retry budget)
    double expected_attempts = 1.0;
    double tx_joules = 0.0;         ///< sender draw at expected attempts
    double rx_joules = 0.0;         ///< receiver draw on success
    bool wireless = true;
  };

  /// Constructed only when RuntimeConfig::flow is enabled.
  FlowModel(Network& network, common::Rng rng);

  const FlowStats& stats() const { return stats_; }
  Network& network() { return network_; }
  common::Rng& rng() { return rng_; }

  // --- fidelity selection --------------------------------------------------

  /// May hop a->b be served analytically right now?  One rule for every
  /// hop: not while a FaultInjector is armed, since chaos forces packet
  /// fidelity deployment-wide.  Reliable traffic never asks: with a
  /// ReliableChannel installed every sender takes the channel's
  /// packet-level branch.
  bool hop_eligible(NodeId a, NodeId b) const;
  /// Every hop of `route` is eligible (>= 2 nodes required).
  bool route_eligible(const std::vector<NodeId>& route) const;
  /// Every parent edge of the tree is eligible — the gate for the
  /// sensornet's whole-subtree analytic epoch.
  bool tree_eligible(const SinkTree& tree) const;

  // --- analytic service ----------------------------------------------------

  /// Whole-route analytic transfer with the same callback contract as
  /// Network::send_route: cb(delivered, hops_completed) fires from ONE
  /// simulator event at the flow's analytic completion time.  Stats,
  /// ledger charges and battery draws mirror the packet tier at
  /// expectation value.  Call only when route_eligible(route).
  void send_flow(const std::vector<NodeId>& route, std::uint64_t bytes,
                 RouteCallback cb);

  /// Expected attempts/latency/energy/success for hop a->b; false when no
  /// usable link exists right now.  Not const: it updates the closed-form
  /// memo, so one FlowModel must not serve two threads at once.
  bool hop_outcome(NodeId a, NodeId b, std::uint64_t bytes, HopOutcome& out);

  /// expected_max_attempts(n, loss_p, the network's max_retries), through
  /// the same memo as hop_outcome: a TAG level's n transmitters share one
  /// loss class, so the level evaluates it once.
  double level_max_attempts(std::size_t n, double loss_p);

  /// Applies one analytic hop's books: network stats, per-node counters,
  /// ledger charge, battery draws (sender always pays; the receiver only on
  /// success).  Returns false when a battery death makes the hop fail even
  /// though the loss draw succeeded (mirrors the packet tier).
  bool charge_hop(NodeId a, NodeId b, std::uint64_t bytes,
                  const HopOutcome& hop, bool success);

  /// Bookkeeping for the sensornet's whole-subtree epoch.
  void note_tree_epoch() { ++stats_.tree_epochs; }
  void note_packet_fallback() { ++stats_.packet_fallbacks; }

  // --- the closed forms (shared with tests and the calibration sweep) ------

  /// P(delivery within max_retries+1 attempts) at per-attempt loss p.
  static double hop_success_p(double loss_p, std::size_t max_retries);
  /// E[attempts] of the truncated-retry loop (the packet tier's loop in
  /// Network::transmit): E[min(Geometric(1-p), m+1)].
  static double expected_attempts(double loss_p, std::size_t max_retries);
  /// E[max over n concurrent transmitters of their attempt counts] — the
  /// analytic duration of one TAG level where n children transmit at once:
  /// sum_{k=0}^{m} (1 - (1 - p^k)^n).
  static double expected_max_attempts(std::size_t n, double loss_p,
                                      std::size_t max_retries);

 private:
  /// One hop of a cached flow plan.
  struct PlanHop {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    HopOutcome outcome;
  };
  struct FlowPlan {
    /// The exact route the plan was built for.  Two different routes can
    /// share (src, dst, bytes) — e.g. a sink-tree route vs a Dijkstra route
    /// between the same endpoints — so a cache hit verifies the route.
    std::vector<NodeId> route;
    std::vector<PlanHop> hops;
    bool viable = false;  ///< false: some hop had no usable link when built
    std::size_t broken_hop = 0;  ///< first unusable hop when !viable
  };

  /// Most flow plans cached at once.
  static constexpr std::size_t kPlanCacheCapacity = 4096;

  /// An armed injector's drops/duplicates/jitter are per-transmit effects
  /// the analytic tier cannot reproduce.
  bool chaos_armed() const { return network_.fault_injector() != nullptr; }
  static std::uint64_t plan_key(NodeId src, NodeId dst, std::uint64_t bytes);
  /// Synchronizes the plan cache with the network's (topology, liveness)
  /// versions — the exact RouteCache discipline, so mobility/churn/chaos/
  /// death invalidate analytic state whenever they invalidate routes.
  /// When the network's last scoped delta covers the whole version gap,
  /// only plans whose route touches a dirty row are dropped (a plan is a
  /// pure function of its route nodes' state, and any changed edge puts an
  /// endpoint row in the dirty set); otherwise the whole cache is cleared.
  void sync_plan_version();
  const FlowPlan& plan_for(const std::vector<NodeId>& route,
                           std::uint64_t bytes);

  /// The closed forms for the last (loss_p, retries) asked for, and E[max]
  /// for the last n at those inputs.  TAG epochs ask for the sensor radio's
  /// class hop after hop, so almost every call hits.  Each FlowModel (one per
  /// region, one per what-if clone) keeps its own.
  struct ClosedForms {
    double loss_p = -1.0;  ///< outside [0, 1]: the first call always computes
    std::size_t retries = 0;
    double success_p = 1.0;
    double expected_attempts = 1.0;
    std::size_t max_n = kNoLevel;  ///< kNoLevel: expected_max not computed
    double expected_max = 1.0;
  };
  static constexpr std::size_t kNoLevel =
      std::numeric_limits<std::size_t>::max();
  ClosedForms& closed_forms(double loss_p);

  Network& network_;
  common::Rng rng_;
  FlowStats stats_;
  ClosedForms closed_forms_;
  std::unordered_map<std::uint64_t, FlowPlan> plans_;
  std::uint64_t plan_topology_version_ = 0;
  std::uint64_t plan_liveness_version_ = 0;
  bool plan_has_version_ = false;
};

}  // namespace pgrid::net
