// Deterministic discrete-event simulation kernel.
//
// This is the substrate stand-in for GloMoSim [31], which the paper extended
// to simulate dynamic service composition.  Events at equal timestamps fire
// in scheduling order (a monotone sequence number breaks ties), so a run is
// a pure function of its seed and inputs.
//
// Hot-path layout: event records live in a slab (std::vector with a
// free list), callbacks are small-buffer-optimized SmallFn values stored in
// the record, and an index-tracked 4-ary min-heap of (time, seq) keys —
// sibling groups aligned to cache lines — orders firing.  Heap sifts move
// 16-byte keys, never callbacks; cancellation is a
// true O(log n) removal (no tombstones), so pending() is exact and a handle
// for a fired event is reliably rejected; steady-state schedule/fire cycles
// reuse slab slots and perform zero allocations.
//
// The kernel also propagates an opaque *trace context* (a uint64, used by
// the telemetry layer as the active TraceId) along causal chains: an event
// captures the context current when it was scheduled and re-establishes it
// while it runs, so asynchronous continuations inherit the trace of the
// activity that spawned them without any plumbing in the callbacks.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/small_fn.hpp"
#include "sim/time.hpp"

namespace pgrid::sim {

/// Handle used to cancel a scheduled event.  Encodes the slab slot and the
/// slot's generation at scheduling time, so a handle goes stale the moment
/// its event fires, is cancelled, or is cleared — even if the slot has been
/// reused since.  A zero (default) handle is never valid.
struct EventHandle {
  std::uint64_t id = 0;
};

/// Event-queue simulator.  Single-threaded by design: determinism is a core
/// requirement for the partitioning study (same seed -> same trace).
class Simulator {
 public:
  /// Inline buffer sized for the capture sets the subsystems actually
  /// schedule (a couple of shared_ptrs plus a completion std::function);
  /// larger captures transparently spill to the heap.
  using Callback = common::SmallFn<void(), 64>;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` after now. Negative delays clamp to 0.
  EventHandle schedule(SimTime delay, Callback fn);

  /// Schedules `fn` at an absolute time (clamped to now).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Emplace overloads: a lambda (or any callable) is constructed directly
  /// in the slab record — no intermediate Callback, no relocate.  These win
  /// overload resolution for raw callables; the Callback overloads above
  /// still take pre-built values.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventHandle schedule(SimTime delay, F&& fn) {
    if (delay.us < 0) delay = SimTime::zero();
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventHandle schedule_at(SimTime when, F&& fn) {
    const std::uint32_t slot = prepare_slot(when);
    record_at(slot).fn.emplace(std::forward<F>(fn));
    return finish_schedule(slot, when);
  }

  /// Cancels a pending event; returns false if it already fired, was
  /// cancelled, or was dropped by clear().
  bool cancel(EventHandle handle);

  /// Runs until the queue is empty.  Returns events processed.
  std::size_t run();

  /// Runs events with time <= deadline; leaves later events queued and
  /// advances now() to the deadline.
  std::size_t run_until(SimTime deadline);

  /// Runs at most one event; returns false if the queue was empty.
  bool step();

  /// Exact count of live (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return count_; }

  /// Timestamp of the earliest pending event; pending() must be > 0.  The
  /// lockstep sharding layer (sim/shard.hpp) uses this to pick window
  /// boundaries without popping.
  SimTime next_time() const {
    assert(count_ > 0);
    return SimTime{entry_at(0).when_us};
  }

  /// Drops all pending events (used between independent experiment runs).
  /// Handles issued before the clear are invalidated, and their slots are
  /// recycled for new events.
  void clear();

  /// The opaque context (telemetry TraceId) new events inherit; restored
  /// around each event the kernel fires.
  std::uint64_t trace_context() const { return trace_; }
  void set_trace_context(std::uint64_t trace);

 private:
  static constexpr std::uint32_t kNotInHeap = 0xffffffff;

  /// Slab-resident event.  `generation` starts at 1 and is bumped every
  /// time the slot is released, so stale handles never alias a reused slot.
  /// The ordering key (when, seq) lives in the heap entry and the slot's
  /// heap position in the dense side array heap_index_ (16 slots per cache
  /// line), so sifts never dereference these records.  Records live in
  /// fixed-size chunks whose addresses never move, so the fire path invokes
  /// callbacks in place — no per-event move to the stack — even when the
  /// callback schedules and grows the slab.
  struct EventRecord {
    std::uint64_t trace = 0;
    std::uint32_t generation = 1;
    Callback fn;
  };

  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = 1ull << kChunkShift;

  /// Heap node, packed to 16 bytes so a sift touches as few cache lines as
  /// possible: the timestamp plus (seq << 24 | slot).  Slots are bounded by
  /// kMaxPending; seq is 40 bits and renumbered compactly before it can
  /// wrap, so comparing the packed word under equal timestamps compares
  /// scheduling order (seqs are unique — the slot bits never decide).
  struct HeapEntry {
    std::int64_t when_us;
    std::uint64_t seq_slot;

    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
  };

  /// One 4-ary sibling group per cache line.  Physical node p lives in
  /// groups_[p >> 2].lane[p & 3]; the root is physical 0, lanes 1..3 of
  /// group 0 and every lane past the live tail hold +inf sentinels, so the
  /// 4-way child tournament always reads a full, resident line and never
  /// branches on group occupancy.  Children of p occupy group p - 2 (the
  /// root's occupy group 1), so a sift touches exactly one line per level
  /// and the four grandchild groups are contiguous — prefetchable.
  struct alignas(64) HeapGroup {
    HeapEntry lane[4];
  };

  static constexpr std::uint64_t kSlotMask = (1ull << 24) - 1;
  /// Concurrent-pending-event bound from the 24 slot bits.
  static constexpr std::size_t kMaxPending = 1ull << 24;
  /// Renumber threshold for the 40 seq bits.
  static constexpr std::uint64_t kMaxSeq = 1ull << 40;

  static constexpr HeapEntry kSentinel{
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::uint64_t>::max()};

  /// Short-circuit lexicographic (when, seq) compare.  Deliberately branchy:
  /// a fully branch-free descent measured ~20% slower because predicted
  /// branches let the next level's loads issue speculatively, while cmov
  /// serializes the address chain.
  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.when_us != b.when_us) return a.when_us < b.when_us;
    return a.seq_slot < b.seq_slot;
  }

  /// Branch-free variant for the intra-group pair compares of the 4-way
  /// tournament: those results only select a lane (setcc arithmetic, no
  /// jump), which halves the ~50%-mispredicted branches per level while the
  /// final compare stays branchy so the descent path is still speculated.
  static bool entry_less_flat(const HeapEntry& a, const HeapEntry& b) {
    return (a.when_us < b.when_us) |
           ((a.when_us == b.when_us) & (a.seq_slot < b.seq_slot));
  }

  EventRecord& record_at(std::uint32_t slot) {
    return slab_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  HeapEntry& entry_at(std::size_t physical) {
    return groups_[physical >> 2].lane[physical & 3];
  }
  const HeapEntry& entry_at(std::size_t physical) const {
    return groups_[physical >> 2].lane[physical & 3];
  }
  /// Physical index of the i-th live entry in heap fill order (0, 4, 5, ...).
  static std::size_t physical_of(std::size_t i) { return i == 0 ? 0 : i + 3; }
  /// Physical index of the last live entry; count_ must be > 0.
  std::size_t last_physical() const { return physical_of(count_ - 1); }

  void place(std::size_t physical, const HeapEntry& entry) {
    entry_at(physical) = entry;
    heap_index_[entry.slot()] = static_cast<std::uint32_t>(physical);
  }
  void sift_up(std::size_t physical, const HeapEntry& entry);
  void sift_down(std::size_t physical, const HeapEntry& entry);
  void heap_push(const HeapEntry& entry);
  void heap_remove(std::size_t physical);
  /// Removes the root (earliest) entry.
  void heap_pop_root();

  /// Clamps `when` to now, renumbers seqs if near wrap, acquires a slot.
  std::uint32_t prepare_slot(SimTime& when);
  /// Records the trace context, pushes the heap key, returns the handle.
  EventHandle finish_schedule(std::uint32_t slot, SimTime when);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Compacts pending seqs to 0..n-1 (order-preserving, so heap positions
  /// are unchanged); runs once per 2^40 scheduled events.
  void renumber_sequences();

  /// Pops the earliest event, releases its slot (so nested scheduling can
  /// reuse it and slab growth never invalidates live references), and runs
  /// the callback under its captured trace context.
  void fire_top();

  std::vector<std::unique_ptr<EventRecord[]>> slab_;  // stable-address chunks
  std::size_t slab_size_ = 0;                         // slots handed out
  std::vector<std::uint32_t> heap_index_;  // slot -> physical heap position
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapGroup> groups_;  // index-tracked 4-ary min-heap
  std::size_t count_ = 0;          // live heap entries
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t trace_ = 0;
};

/// Establishes `trace` as the kernel's trace context for the current scope
/// and restores the previous context on exit.  The fire path and the
/// telemetry layer's TraceScope share this one save/restore mechanism.
class TraceContextGuard {
 public:
  TraceContextGuard(Simulator& simulator, std::uint64_t trace)
      : sim_(simulator), saved_(simulator.trace_context()) {
    sim_.set_trace_context(trace);
  }
  ~TraceContextGuard() { sim_.set_trace_context(saved_); }
  TraceContextGuard(const TraceContextGuard&) = delete;
  TraceContextGuard& operator=(const TraceContextGuard&) = delete;

 private:
  Simulator& sim_;
  std::uint64_t saved_;
};

// ---- Hot-path definitions -------------------------------------------------
//
// The per-event cycle (schedule -> sift -> fire) is defined inline here so a
// caller's TU can fold it into its loop; pushing these out of line costs an
// indirect-call round trip per event that is measurable at L1-resident queue
// depths.  Cold paths — cancel, clear, renumbering, the run loops — stay in
// simulator.cpp.

inline void Simulator::set_trace_context(std::uint64_t trace) {
  trace_ = trace;
  // Keep log lines correlatable with ledger rows (PGRID_LOG prefixes the
  // active trace id).  The kernel is the only writer of the log trace.  It
  // is per thread and several simulators can share a thread (the regions
  // of one lane), so it is written on every switch, not only when this
  // simulator's own context changes.
  common::set_log_trace(trace);
}

inline std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  assert(slab_size_ < kMaxPending && "too many concurrent pending events");
  if ((slab_size_ >> kChunkShift) == slab_.size()) {
    slab_.push_back(std::make_unique<EventRecord[]>(kChunkSize));
  }
  heap_index_.push_back(kNotInHeap);
  return static_cast<std::uint32_t>(slab_size_++);
}

inline void Simulator::release_slot(std::uint32_t slot) {
  ++record_at(slot).generation;
  heap_index_[slot] = kNotInHeap;
  free_slots_.push_back(slot);
}

inline std::uint32_t Simulator::prepare_slot(SimTime& when) {
  if (when < now_) when = now_;
  if (next_seq_ >= kMaxSeq) renumber_sequences();
  return acquire_slot();
}

inline EventHandle Simulator::finish_schedule(std::uint32_t slot,
                                              SimTime when) {
  EventRecord& record = record_at(slot);
  record.trace = trace_;
  heap_push(HeapEntry{when.us, (next_seq_++ << 24) | slot});
  return EventHandle{(static_cast<std::uint64_t>(record.generation) << 32) |
                     slot};
}

inline void Simulator::sift_up(std::size_t physical, const HeapEntry& entry) {
  while (physical != 0) {
    // Children of physical node p form group p - 2 (the root's form group
    // 1), so the parent of anything in group g >= 2 is node g + 2.
    const std::size_t group = physical >> 2;
    const std::size_t parent = group == 1 ? 0 : group + 2;
    const HeapEntry above = entry_at(parent);
    if (!entry_less(entry, above)) break;
    place(physical, above);
    physical = parent;
  }
  place(physical, entry);
}

inline void Simulator::heap_push(const HeapEntry& entry) {
  const std::size_t physical = physical_of(count_);
  if ((physical >> 2) >= groups_.size()) {
    groups_.push_back(HeapGroup{{kSentinel, kSentinel, kSentinel, kSentinel}});
  }
  ++count_;
  sift_up(physical, entry);
}

inline void Simulator::heap_pop_root() {
  const std::size_t last = last_physical();
  const HeapEntry moved = entry_at(last);
  entry_at(last) = kSentinel;
  --count_;
  if (count_ == 0) return;
  // Floyd's pop: walk the hole to the bottom promoting the best child of
  // every level unconditionally — the descent's only branch is the
  // perfectly-predicted loop bound, not a data-dependent exit compare —
  // then bubble the moved tail entry up from the leaf hole (it was already
  // bottom-tier, so it rises O(1) levels in expectation).
  const std::size_t bottom = last_physical();
  // Prefetching grandchild groups only pays once the heap outgrows L1;
  // below that every group is already resident and the prefetches are pure
  // issue-slot overhead on the descent's critical path.
  const bool deep = count_ > 2048;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t child_group = hole == 0 ? 1 : hole - 2;
    const std::size_t first_child = child_group * 4;
    if (first_child > bottom) break;
#if defined(__GNUC__)
    // The four grandchild groups are contiguous (groups first_child - 2 ..
    // first_child + 1); warm them while the tournament below runs.
    if (deep && first_child + 1 < groups_.size()) {
      __builtin_prefetch(&groups_[first_child - 2]);
      __builtin_prefetch(&groups_[first_child - 1]);
      __builtin_prefetch(&groups_[first_child]);
      __builtin_prefetch(&groups_[first_child + 1]);
    }
#endif
    // Branch-light 4-way tournament over one cache line; lanes past the
    // live tail hold +inf sentinels and can never win.
    const HeapEntry* lane = groups_[child_group].lane;
    const std::size_t b01 = entry_less_flat(lane[1], lane[0]) ? 1 : 0;
    const std::size_t b23 = entry_less_flat(lane[3], lane[2]) ? 3 : 2;
    const std::size_t best = entry_less(lane[b23], lane[b01]) ? b23 : b01;
    place(hole, lane[best]);
    hole = first_child + best;
  }
  sift_up(hole, moved);
}

inline void Simulator::fire_top() {
  const HeapEntry root = entry_at(0);
  const std::uint32_t slot = root.slot();
  now_ = SimTime{root.when_us};
  heap_pop_root();
  // Mark not-in-heap before invoking so a callback cancelling its own
  // (now firing) handle is told no.  The record's chunk address is stable,
  // so the callback runs in place — it may schedule (growing the slab) or
  // clear() freely; the slot itself stays acquired until after the call.
  heap_index_[slot] = kNotInHeap;
  EventRecord& record = record_at(slot);
  {
    TraceContextGuard guard(*this, record.trace);
    record.fn();
  }
  record.fn.reset();
  release_slot(slot);
}

inline bool Simulator::step() {
  if (count_ == 0) return false;
  fire_top();
  return true;
}

}  // namespace pgrid::sim
