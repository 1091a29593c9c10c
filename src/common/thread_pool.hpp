// Fixed-size worker pool used by the grid's PDE solvers (the "heavy
// computation" side of the pervasive grid) and by the runtime's parallel
// what-if trials.  Simulation code stays single threaded and deterministic;
// only numeric kernels and independent simulator clones parallelize.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pgrid::common {

/// Simple task-queue thread pool.  Workers start on the first submit(), so
/// a pool that only ever runs work inline (a one-worker pool used through
/// parallel_for, or one never used at all) starts no thread.
///
/// Contract: tasks must not throw.  submit() wraps every task in a noexcept
/// shim, so a throwing task terminates loudly at the throw site instead of
/// parking the exception in a future nobody reads.
class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).  No thread
  /// starts until the first submit().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured worker count (whether or not the workers have started).
  std::size_t size() const { return size_; }

  /// Worker threads started so far: 0 until the first submit(), size()
  /// after it.
  std::size_t started_threads() const;

  /// True when the calling thread is one of this pool's workers.  Blocking
  /// on pool work from inside the pool can deadlock; parallel_for uses this
  /// to degrade to inline execution instead.
  bool on_worker_thread() const;

  /// Enqueues a task; the future resolves when it completes.  The first
  /// call starts the workers.  Must not be called during/after destruction
  /// (asserted).
  std::future<void> submit(std::function<void()> task);

  /// Splits [0, n) into contiguous chunks across the pool and blocks until
  /// every chunk completes.  body(first, last) processes [first, last).
  /// n == 0 is a no-op; a single-worker pool (or a call from one of this
  /// pool's own workers, which could otherwise deadlock waiting on itself)
  /// runs the whole range inline on the calling thread.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Like parallel_for, but the body also receives its deterministic chunk
  /// index in [0, chunk_count(n)).  Reductions that combine per-chunk
  /// partials index by it so the combine order — and therefore the
  /// floating-point result — is a function of (n, pool size) alone, never
  /// of thread scheduling.
  void parallel_for_chunks(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

  /// Chunks parallel_for/parallel_for_chunks will split [0, n) into.
  std::size_t chunk_count(std::size_t n) const {
    return n < size_ ? n : size_;
  }

 private:
  void worker_loop();

  std::size_t size_;
  std::vector<std::thread> workers_;  ///< guarded by mutex_
  std::queue<std::packaged_task<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace pgrid::common
