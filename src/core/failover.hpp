// Base-station failover: checkpointed continuous-query state that survives
// station crash/restart, neighbor-region adoption, and client roaming.
//
// Section 1 puts *disconnection* on equal footing with latency and
// bandwidth, yet the base station that owns a region's continuous queries,
// shared TAG trees and admission queue is a single point of total loss: the
// chaos engine can crash sensor nodes and the reliability layer reroutes
// around them, but a station crash silently erases every standing query.
// The FailoverManager closes that hole with a classic checkpoint/replay
// discipline:
//
//  * Periodic, trace-charged checkpoints serialize the live query state —
//    per-query epoch cursors and committed results, the admission queue's
//    not-yet-started arrivals, outstanding deadline budgets, and the
//    Decision Maker's experience (via partition::save_experience) — to a
//    versioned line format with a round-trip bit-identity contract and an
//    FNV-64 integrity tail.  The last serialized string is the "disk": the
//    only state that survives a crash.
//  * On station-down (chaos kStationCrash, a kCrash landing on the base, or
//    NodeChurn), everything in RAM dies: live epoch loops are fenced via
//    abort tokens, shared tree groups are torn down, the admission queue and
//    the learner's calibrations are cleared, and the per-query generation
//    counter bumps — the handoff sequence fence that makes any in-flight
//    completion from the dead station's timeline a detectable stale.
//  * On station-up, the last checkpoint replays: experience reloads, each
//    checkpointed query resumes from its epoch cursor, and the epochs whose
//    natural slots elapsed during the outage are accounted as lost —
//    coverage-graded, exactly like the reliability layer's degraded-result
//    path, so a crashed window reads as reduced coverage instead of a
//    vanished query.  Finalization happens exactly once per query, enforced
//    by the fence regardless of how many crash/restore/adoption cycles the
//    query lives through.
//  * extract()/adopt() move a query between managers — the primitives the
//    sharded deployment builds neighbor-region adoption and roaming-client
//    handoff from (core/sharded.hpp).
//
// Everything is behind RuntimeConfig::failover.enabled (the kill switch):
// when false the manager is never constructed and every legacy path runs
// byte-for-byte unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "net/ids.hpp"
#include "partition/executor.hpp"
#include "partition/models.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace pgrid::core {

struct FailoverConfig {
  /// Master kill switch.  False = no FailoverManager is constructed;
  /// submission, execution and telemetry run bit-identically to a build
  /// without the subsystem.
  bool enabled = false;
  /// Checkpoint cadence in seconds; <= 0 disables checkpointing entirely
  /// (a crash then loses everything — the EXP-R2 "unprotected" arm).
  /// Snapshots ride the epoch stream (write-behind: at most one per period,
  /// taken as epoch results commit) rather than a free-running timer, so an
  /// idle station schedules nothing and the simulator still drains.
  double checkpoint_period_s = 1.0;
  /// Also checkpoint synchronously whenever a query registers, so an
  /// arrival is durable from admission (a write-ahead commit; without it a
  /// query arriving between periodic snapshots would vanish without trace).
  bool checkpoint_on_admit = true;
  /// Replay delay after the station comes back up (reboot + checkpoint
  /// read), in seconds.
  double restart_replay_s = 0.05;
  /// When non-empty, the Decision Maker's experience is loaded from this
  /// file at runtime construction and saved at destruction — the historic
  /// data survives a *process* restart, not just a simulated one.
  std::string experience_path;
};

struct FailoverStats {
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;  ///< serialized bytes, summed
  std::uint64_t station_crashes = 0;
  std::uint64_t restores = 0;          ///< checkpoint replays after restart
  std::uint64_t queries_restored = 0;
  std::uint64_t queries_lost = 0;      ///< no checkpointed state to replay
  std::uint64_t epochs_lost_in_gap = 0;
  std::uint64_t stale_epochs = 0;      ///< fence-rejected epoch commits
  std::uint64_t suppressed_finalizations = 0;  ///< fence-rejected finalizes
  std::uint64_t adoptions = 0;         ///< queries adopted from a peer
  std::uint64_t extractions = 0;       ///< queries handed to a peer
};

/// One committed epoch of a protected query — the serializable unit of
/// progress.  `lost` marks a gap placeholder (slot elapsed while the
/// station was down); lost epochs are never ok and carry zero coverage.
struct EpochRecord {
  bool ok = false;
  bool degraded = false;
  bool lost = false;
  int model = 0;  ///< partition::SolutionModel as int
  double value = 0.0;
  double coverage = 0.0;
  double accuracy = 1.0;
  double energy_j = 0.0;
  double response_s = 0.0;
  std::uint64_t data_bytes = 0;
  double compute_ops = 0.0;

  bool operator==(const EpochRecord&) const = default;
};

/// Serializable core of one protected continuous query: identity, schedule
/// parameters, deadline budget, and the committed epoch prefix.
struct QueryCheckpoint {
  std::uint64_t id = 0;
  std::string text;         ///< raw query text (replayed through the parser)
  std::string model = "-";  ///< forced model name, or "-" for adaptive
  std::size_t total_epochs = 0;
  double epoch_s = 1.0;
  double deadline_s = 0.0;  ///< absolute sim seconds; 0 = unlimited budget
  double started_s = 0.0;   ///< natural slot anchor (re-anchored on resume)
  bool queued = false;      ///< still in the admission queue (no progress)
  std::vector<EpochRecord> epochs;

  bool operator==(const QueryCheckpoint&) const = default;
};

/// A full station snapshot: every live query, the queued arrivals, and the
/// learner's experience payload.
struct Checkpoint {
  std::uint64_t seq = 0;     ///< checkpoint sequence number
  double taken_at_s = 0.0;
  std::vector<QueryCheckpoint> queries;
  std::string experience;    ///< partition::save_experience payload

  bool operator==(const Checkpoint&) const = default;
};

/// Versioned line format ("pgrid-checkpoint-v1" ... "end <fnv64>").
/// Contract: parse(serialize(c)) == c and serialize(parse(t)) == t, bit for
/// bit (doubles at max_digits10).
std::string serialize_checkpoint(const Checkpoint& checkpoint);

/// Rejects truncation (missing integrity tail), corruption (checksum
/// mismatch) and malformed records with a clean error — the caller sees
/// either a complete checkpoint or none (no partial restore).
common::Result<Checkpoint> parse_checkpoint(const std::string& text);

class FailoverManager {
 public:
  /// Fires the query's single completion (the runtime's summarize path).
  using Finalize =
      std::function<void(std::vector<partition::ActualCost>,
                         std::vector<partition::SolutionModel>)>;
  /// Runs the next execution segment of a registered query: epochs
  /// [committed, total).  `readmit` is true on post-crash resume — the
  /// segment must re-enter admission control (coalescing with compatible
  /// groups) instead of assuming its old slot still exists.
  using SegmentRunner = std::function<void(std::uint64_t qid, bool readmit)>;

  /// One protected query, as the segment runner sees it.  The snapshot is
  /// the serializable core; everything else is process-local plumbing that
  /// models what lives where: `finalize` is the client's open conversation
  /// (survives the crash — the handheld is still waiting), `abort` and
  /// `cancel_shared` fence the station-RAM epoch loop (dies with it).
  struct Record {
    QueryCheckpoint snap;
    Finalize finalize;
    std::uint32_t generation = 0;
    bool finalized = false;
    bool awaiting_restore = false;   ///< crashed; waiting for replay
    bool adopted_elsewhere = false;  ///< a peer region owns the segments
    std::shared_ptr<bool> abort;     ///< current segment's fence token
    std::function<void()> cancel_shared;  ///< detaches a shared segment
    /// Opaque client-side shell (the runtime's QueryOutcome) — travels with
    /// the record so a resumed segment can stamp shared/model metadata.
    std::shared_ptr<void> user_data;
  };

  FailoverManager(FailoverConfig config, sim::Simulator& sim,
                  telemetry::CostLedger& ledger);
  ~FailoverManager();

  FailoverManager(const FailoverManager&) = delete;
  FailoverManager& operator=(const FailoverManager&) = delete;

  // --- wiring (installed by the owning runtime) -------------------------

  void set_segment_runner(SegmentRunner run) { run_segment_ = std::move(run); }
  /// save: appends partition::save_experience over the live learner to its
  /// argument; load: replay a payload into it; reset: drop all learner state
  /// (crash RAM loss).
  void set_experience_hooks(std::function<void(std::string&)> save,
                            std::function<void(const std::string&)> load,
                            std::function<void()> reset) {
    save_experience_ = std::move(save);
    load_experience_ = std::move(load);
    reset_experience_ = std::move(reset);
  }
  /// Extra station-RAM teardown on crash (sharing crash_reset, etc.).
  void set_crash_hook(std::function<void()> hook) {
    on_crash_ = std::move(hook);
  }

  // --- protected dispatch (runtime.cpp) ---------------------------------

  /// Registers a continuous query under protection (queued until
  /// mark_started).  `meta.id` is assigned here; started_s is stamped from
  /// the simulator.  With checkpoint_on_admit the registration is
  /// immediately durable.  Returns the query id.
  std::uint64_t register_query(QueryCheckpoint meta);
  /// Installs the completion path and client shell once dispatch builds
  /// them (admission may run before the outcome shell exists).
  void set_finalize(std::uint64_t qid, Finalize finalize,
                    std::shared_ptr<void> user_data);
  /// Admission let the query through: it is no longer a queued arrival.
  void mark_started(std::uint64_t qid);
  /// Admission shed the arrival (the legacy shed path already answered the
  /// client): drop it from protection without firing anything.
  void deregister(std::uint64_t qid);

  /// Starts (or resumes) the query's current segment via the installed
  /// runner.  Public so restore/adoption and the first dispatch share one
  /// path.
  void launch_segment(std::uint64_t qid, bool readmit);

  Record* find(std::uint64_t qid);
  const Record* find(std::uint64_t qid) const;
  std::uint32_t generation(std::uint64_t qid) const;
  /// Fresh abort token for a new segment of `qid` (invalidates none —
  /// the old token was already tripped by the fence that led here).
  partition::AbortToken begin_segment(std::uint64_t qid);
  void set_segment_cancel(std::uint64_t qid, std::function<void()> cancel);

  /// Commits one epoch result under the fence: returns true when accepted
  /// (matching generation, query live), false for stales — the caller must
  /// not feed the learner or count the epoch when rejected.
  bool commit_epoch(std::uint64_t qid, std::uint32_t gen,
                    partition::SolutionModel model,
                    const partition::ActualCost& cost);
  /// The segment ran all its remaining epochs; finalizes when the record
  /// is complete.  Fence-checked like commit_epoch.
  void segment_complete(std::uint64_t qid, std::uint32_t gen);
  /// Re-admission refused the resumed segment (overload / expired budget):
  /// the remaining epochs are lost and the query finalizes degraded.
  void segment_shed(std::uint64_t qid, std::uint32_t gen);

  // --- station lifecycle ------------------------------------------------

  /// NodeChurn/ChaosEngine-compatible adapter (wire to
  /// ChaosEngine::set_station_callback).
  void on_station_transition(net::NodeId /*station*/, bool up) {
    if (up) {
      on_station_up();
    } else {
      on_station_down();
    }
  }
  void on_station_down();
  void on_station_up();
  bool station_down() const { return station_down_; }

  // --- checkpoints ------------------------------------------------------

  /// Takes a snapshot now: serializes, charges the ledger (bytes = payload
  /// size, its own trace), and stores it as the last checkpoint.  No-op
  /// while the station is down (there is no one to write the disk).
  void checkpoint_now();
  /// The last serialized snapshot ("" = none taken yet).  This is the only
  /// state that survives a crash; the sharded deployment ships it over the
  /// lockstep backhaul for adoption.
  const std::string& last_checkpoint() const { return last_checkpoint_; }
  /// Builds the in-memory snapshot without serializing (tests, adoption).
  Checkpoint build_checkpoint() const;

  // --- adoption / handoff (used by core/sharded.hpp) --------------------

  struct Extracted {
    QueryCheckpoint snap;
    Finalize finalize;
  };
  /// Fences the local record and hands its snapshot + completion to the
  /// caller — the roaming-client handoff: the query (and its open client
  /// conversation) leaves this region.  Fails when the id is unknown or
  /// already finalized.
  common::Result<Extracted> extract(std::uint64_t qid);
  /// Adopts a query from a peer's checkpoint: registers it locally (fresh
  /// local id), accounts epochs whose natural slots elapsed before adoption
  /// as gap-lost, and launches the next segment through re-admission.
  /// `finalize` typically posts the completed epochs back to the home
  /// region.  Returns the local id.
  std::uint64_t adopt(QueryCheckpoint snap, Finalize finalize);
  /// Marks home-side records as adopted by a peer: the local replay skips
  /// them (the peer owns the segments until migration back).
  void mark_adopted_elsewhere(const std::vector<std::uint64_t>& ids);
  /// Migration back (or remote completion): replaces the awaiting record's
  /// progress with the peer's snapshot and resumes locally — or finalizes
  /// immediately when the snapshot is complete.  Exactly-once: a record
  /// already finalized ignores the delivery (suppressed, counted).
  void resume_migrated(std::uint64_t qid, QueryCheckpoint snap);

  /// Live (unfinalized) query ids, ascending — benches/tests pick handoff
  /// subjects from here.
  std::vector<std::uint64_t> live_ids() const;

  const FailoverStats& stats() const { return stats_; }
  const FailoverConfig& config() const { return config_; }

 private:
  void finalize_record(Record& record);
  void flush_deferred_finalizations();
  /// The post-restart replay: parses the last checkpoint and resumes,
  /// grades, or total-loss-finalizes every record that crashed.
  void restore_from_checkpoint();
  /// Appends gap-lost placeholders for every natural slot that elapsed
  /// before `now_s`, then re-anchors started_s so the resumed segment's
  /// slots stay aligned.  Returns the number of epochs lost.
  std::size_t account_gap(QueryCheckpoint& snap, double now_s);
  /// Write-behind: takes a snapshot when at least one checkpoint period has
  /// elapsed since the last (called from the epoch-commit stream).
  void checkpoint_maybe();
  /// Does a snapshot carry this record?  (Finalized and peer-owned ones
  /// are not this station's to replay.)
  static bool checkpointed(const Record& record) {
    return !record.finalized && !record.adopted_elsewhere;
  }

  FailoverConfig config_;
  sim::Simulator& sim_;
  telemetry::CostLedger& ledger_;
  SegmentRunner run_segment_;
  std::function<void(std::string&)> save_experience_;
  std::function<void(const std::string&)> load_experience_;
  std::function<void()> reset_experience_;
  std::function<void()> on_crash_;

  std::map<std::uint64_t, Record> records_;
  std::uint64_t next_id_ = 1;
  std::uint64_t checkpoint_seq_ = 0;
  std::string last_checkpoint_;
  bool station_down_ = false;
  /// Finalizations that arrived while the station was down (remote
  /// completions from an adopter) — drained after restart.
  std::vector<std::uint64_t> deferred_finalize_;
  double last_checkpoint_at_s_ = -1.0;
  FailoverStats stats_;
};

}  // namespace pgrid::core
