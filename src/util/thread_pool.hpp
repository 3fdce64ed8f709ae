#pragma once
// Fixed-size worker pool with one blocking fork-join loop, parallel_for.
//
// The genetic algorithms are embarrassingly parallel: GRA evaluates a
// population of independent individuals, island GRA advances independent
// islands, and AGRA runs one micro-GA per changed object. Each reaches the
// shared pool through algo::for_each_task (algo/common.hpp). The pool is
// created once and reused. parallel_for runs one lane per worker, the
// caller being lane 0, and each lane claims the next index from a shared
// counter until the range is exhausted, so uneven iterations spread over
// the lanes. Which lane runs which index depends on timing: bodies must not
// depend on it beyond using the lane id for private scratch.

#include <condition_variable>
#include <cstddef>
#include <deque>
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

  /// The pool's one fork-join loop: runs body(lane, i) exactly once for
  /// every i in [begin, end) and blocks until all iterations finish.
  /// min(end - begin, size()) lanes run, lane 0 being the calling thread,
  /// and each lane claims the next index from one shared counter until the
  /// range is exhausted, so a slow index holds back only its own lane. Each
  /// lane id runs on one thread at a time, so a caller can keep one
  /// accumulator or scratch object per lane without locking; which indices
  /// a lane gets varies from run to run. A lane stops at its first
  /// exception while the others keep claiming, and the first captured
  /// exception is rethrown on the caller after every lane has finished.
  /// Executes inline, in index order, on lane 0 when the range has one
  /// index, the pool has a single worker, or the caller is a pool worker.
  void parallel_for(
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

}  // namespace drep::util
