// Invariant-checker registry for chaos runs.
//
// A chaos scenario is only as good as the properties it checks afterwards.
// This module collects named predicates over a deployment's end state —
// ledger cost conservation, kernel queue exactness, sink-tree consistency
// after partitions heal, fresh topology caches, chaos-engine quiescence —
// and runs them all, reporting every violation with enough detail to
// debug from the printed seed + schedule alone.  Checks return std::nullopt on success or a
// human-readable detail string on failure; they must not mutate observable
// simulation state (the kernel probe schedules and cancels its own no-ops,
// which is invisible to pending()-exactness and determinism).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/chaos.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace pgrid::sim {

/// One failed invariant.
struct Violation {
  std::string invariant;  ///< registry name of the failed check
  std::string detail;     ///< what was observed vs expected
};

/// Named collection of checks, run in registration order.
class InvariantRegistry {
 public:
  /// A check returns std::nullopt when the invariant holds, or a detail
  /// string describing the violation.
  using Check = std::function<std::optional<std::string>()>;

  void add(std::string name, Check check) {
    checks_.push_back({std::move(name), std::move(check)});
  }

  std::size_t size() const { return checks_.size(); }

  /// Runs every check; returns all violations (empty == all hold).
  std::vector<Violation> run_all() const {
    std::vector<Violation> violations;
    for (const auto& [name, check] : checks_) {
      if (auto detail = check()) {
        violations.push_back({name, *detail});
      }
    }
    return violations;
  }

 private:
  struct Named {
    std::string name;
    Check check;
  };
  std::vector<Named> checks_;
};

// ---- Built-in checks ------------------------------------------------------

/// Ledger cost conservation: for every subsystem, the global totals equal
/// the sum over all trace rows — integer counters exactly, floating-point
/// counters to relative 1e-6 (they are accumulated in a different order).
std::optional<std::string> check_ledger_conservation(
    const telemetry::CostLedger& ledger);

/// No Span is still open against the ledger (every bracket closed).
std::optional<std::string> check_no_open_spans(
    const telemetry::CostLedger& ledger);

/// pending() is exact: scheduling 3 far-future no-ops raises it by exactly
/// 3, cancelling restores it, and a second cancel of the same handle is
/// rejected.  The probe leaves the queue exactly as it found it.
std::optional<std::string> check_kernel_pending_exact(Simulator& simulator);

/// A sink tree built over the *current* topology is consistent: parent
/// pointers are acyclic and terminate at the sink, depths increase by
/// exactly one along tree edges, and every tree edge is connected() right
/// now.  Run after all faults heal, this is the "routing converges after
/// partitions heal" check.
std::optional<std::string> check_sink_tree_consistent(
    const net::Network& network, net::NodeId sink);

/// The topology caches are fresh: every row of the (possibly delta-patched)
/// CSR snapshot equals neighbors_naive(), and no cached route has ever
/// failed its per-hop revalidation.  Reading the snapshot applies any
/// pending scoped epoch, which changes the work later queries do, never
/// their answers.
std::optional<std::string> check_topology_caches_fresh(
    const net::Network& network);

/// Every injected fault window has healed (active_count() == 0).
std::optional<std::string> check_chaos_quiescent(const ChaosEngine& engine);

}  // namespace pgrid::sim
