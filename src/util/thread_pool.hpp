#pragma once
// Fixed-size worker pool with a blocking parallel_for.
//
// The experiment harnesses average over many independent random networks and
// the genetic algorithms evaluate whole populations; both are embarrassingly
// parallel. The pool is created once and reused. parallel_for runs one lane
// per worker, the caller being lane 0, and each lane claims the next index
// from a shared counter until the range is exhausted, so uneven iterations
// spread over the lanes. Which lane runs which index depends on timing:
// bodies must not depend on it beyond using the lane id for private
// scratch.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace drep::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Runs body(i) exactly once for every i in [begin, end) and blocks until
  /// all iterations finish. Lanes claim indices one at a time; a lane stops
  /// at its first exception while the others keep claiming, and the first
  /// captured exception is rethrown on the caller after every lane has
  /// finished. Executes inline, in index order, when the range has one
  /// index, the pool has a single worker, or the caller is a pool worker.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Like parallel_for but hands the body the lane id as well:
  ///   body(lane, i), lane in [0, min(end - begin, size())).
  /// Lane 0 is the calling thread, and each lane id runs on one thread at a
  /// time, so a caller can keep one accumulator or scratch object per lane
  /// without locking. Which indices a lane gets varies from run to run.
  void parallel_for_blocked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t lane, std::size_t i)>& body);

  /// Process-wide shared pool (lazily constructed, sized to the hardware or
  /// to the last configure_shared() call that preceded first use).
  static ThreadPool& shared();

  /// Sets the shared pool's worker count (0 = hardware). If the pool was
  /// already constructed at a different size it is torn down (after its
  /// queue drains) and rebuilt. Call from one thread at startup — e.g. the
  /// CLI's --threads flag — never concurrently with tasks in flight.
  static void configure_shared(std::size_t threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Tracks a batch ("wave") of tasks submitted to a pool and lets the caller
/// block until every one of them finished — the bulk-submit counterpart of
/// parallel_for for heterogeneous or nested work (e.g. one task per GA
/// island, or one task per serving-engine duration tick). Exceptions thrown
/// by a task are captured here instead of being parked in the worker (see
/// ThreadPool::worker_loop), and the first one is rethrown from wait(); the
/// rest are counted.
///
/// wait() establishes a happens-before edge with every completed task, so
/// results written by tasks may be read without further synchronization
/// after wait() returns.
///
/// Wave semantics: a WaitGroup is reusable. wait() closes the current wave —
/// it rethrows the wave's first captured exception (exactly once) and
/// latches the wave's failure count into failed() — and the next
/// submit()/run_inline() opens a fresh wave with clean counters. A failed
/// wave therefore never leaks its exception or its count into a later wave
/// (pre-fix, failed() accumulated across waves and a clean wave after a
/// failed one still reported the old failures), and a second wait() with no
/// new submissions is a clean no-op that keeps the last wave's failed()
/// readable. Submit the next wave only after wait() returns; interleaving
/// submissions with a concurrent wait() is a caller error.
class WaitGroup {
 public:
  explicit WaitGroup(ThreadPool& pool) : pool_(pool) {}
  ~WaitGroup();

  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  /// Enqueues `task` on the pool. When the pool has a single worker or the
  /// caller is itself a pool worker (nested batch), runs it inline instead —
  /// the same no-deadlock rule parallel_for follows.
  void submit(std::function<void()> task);

  /// Runs `task` on the calling thread, with the same exception capture as
  /// pooled tasks. Callers alternate submit()/run_inline() to keep one
  /// share of the batch on their own thread.
  void run_inline(const std::function<void()>& task);

  /// Blocks until all submitted tasks finished, closes the wave, then
  /// rethrows the wave's first captured exception, if any — exactly once.
  /// Idempotent: calling again without new submissions returns clean.
  void wait();

  /// Tasks that threw in the last closed wave, including the rethrown first
  /// one (call wait() first; resets to the new wave's count at the next
  /// wait()).
  [[nodiscard]] std::size_t failed() const noexcept;

 private:
  void finish(std::exception_ptr error);

  ThreadPool& pool_;
  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::size_t pending_ = 0;
  bool wave_open_ = false;        // submissions since the last harvest
  std::size_t failed_ = 0;        // current (open) wave
  std::size_t last_wave_failed_ = 0;  // latched by wait()
  std::exception_ptr first_error_;
};

}  // namespace drep::util
