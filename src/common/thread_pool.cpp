#include "common/thread_pool.hpp"

#include <algorithm>
#include <cassert>

namespace pgrid::common {

namespace {
/// The pool (if any) whose worker_loop owns the current thread.
thread_local const ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads != 0 ? threads
                         : std::max<std::size_t>(
                               1, std::thread::hardware_concurrency())) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const { return t_current_pool == this; }

std::size_t ThreadPool::started_threads() const {
  std::lock_guard lock(mutex_);
  return workers_.size();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // noexcept shim: a throwing task aborts here, at the site of the throw,
  // enforcing the pool's "tasks must not throw" contract.
  std::packaged_task<void()> packaged(
      [task = std::move(task)]() noexcept { task(); });
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    assert(!stopping_ && "ThreadPool::submit after shutdown began");
    if (workers_.empty()) {
      // First submit: start the workers.  They block on mutex_ until this
      // task is queued.
      workers_.reserve(size_);
      for (std::size_t i = 0; i < size_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
      }
    }
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_chunks(
      n, [&body](std::size_t, std::size_t first, std::size_t last) {
        body(first, last);
      });
}

void ThreadPool::parallel_for_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t chunks = chunk_count(n);
  // Inline when splitting cannot help — and, crucially, when the caller IS
  // a worker of this pool: blocking a worker on futures served by the same
  // queue can deadlock once every worker does it.
  if (chunks <= 1 || on_worker_thread()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t per = (n + chunks - 1) / chunks;
      const std::size_t first = c * per;
      const std::size_t last = std::min(first + per, n);
      if (first >= last) break;
      body(c, first, last);
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  const std::size_t per = (n + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t first = c * per;
    const std::size_t last = std::min(first + per, n);
    if (first >= last) break;
    futures.push_back(submit([&body, c, first, last] { body(c, first, last); }));
  }
  for (auto& f : futures) f.get();
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace pgrid::common
