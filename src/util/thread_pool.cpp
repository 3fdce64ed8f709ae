#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace drep::util {

namespace {
// Set while a pool worker is executing a task; nested parallel_for calls from
// inside a task run inline instead of re-entering the queue, which would risk
// deadlock when every worker is itself waiting on nested blocks.
thread_local bool g_inside_pool_worker = false;

// RAII so the flag clears even when a task throws — a stuck flag would make
// every later parallel_for on that worker run single-threaded.
struct InsidePoolGuard {
  InsidePoolGuard() { g_inside_pool_worker = true; }
  ~InsidePoolGuard() { g_inside_pool_worker = false; }
  InsidePoolGuard(const InsidePoolGuard&) = delete;
  InsidePoolGuard& operator=(const InsidePoolGuard&) = delete;
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  DREP_COUNT("drep_pool_tasks_total", 1);
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    DREP_GAUGE_SET("drep_pool_queue_depth", queue_.size());
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      DREP_GAUGE_SET("drep_pool_queue_depth", queue_.size());
    }
    InsidePoolGuard guard;
    // parallel_for catches in its lanes and rethrows in the caller; a bare
    // submit() has no caller to rethrow into, and an exception escaping a
    // worker thread is std::terminate. Park it: count, log, keep serving.
    try {
      task();
    } catch (const std::exception& error) {
      DREP_COUNT("drep_pool_task_exceptions_total", 1);
      DREP_LOG(Error) << "thread pool task threw: " << error.what();
    } catch (...) {
      DREP_COUNT("drep_pool_task_exceptions_total", 1);
      DREP_LOG(Error) << "thread pool task threw a non-std exception";
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  DREP_GAUGE_SET("drep_pool_workers", size());
  const std::size_t count = end - begin;
  const std::size_t lanes =
      g_inside_pool_worker ? 1 : std::min(count, size());
  if (lanes <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(0, i);
    return;
  }

  struct State {
    std::atomic<std::size_t> next{0};  // offset of the next unclaimed index
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t remaining = 0;
    std::exception_ptr first_error;
  } state;
  state.remaining = lanes;

  // A lane claims one index at a time until the range is exhausted, so a
  // slow index holds back only the lane running it. A lane stops at its
  // first exception; the others keep claiming.
  const auto run_lane = [&state, &body, begin, count](std::size_t lane) {
    std::exception_ptr error;
    try {
      for (;;) {
        const std::size_t offset =
            state.next.fetch_add(1, std::memory_order_relaxed);
        if (offset >= count) break;
        body(lane, begin + offset);
      }
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(state.mutex);
    // Hand the exception over instead of sharing it: once the count reaches
    // zero the caller may rethrow and free it, and this lane must not touch
    // its reference count after the unlock.
    if (error && !state.first_error) state.first_error = std::move(error);
    if (--state.remaining == 0) state.done_cv.notify_one();
  };
  // Lanes 1..n-1 go to the pool; the caller runs lane 0 itself so that a
  // fully busy pool can never stall the loop indefinitely.
  for (std::size_t lane = 1; lane < lanes; ++lane)
    submit([run_lane, lane] { run_lane(lane); });
  run_lane(0);

  std::unique_lock lock(state.mutex);
  state.done_cv.wait(lock, [&state] { return state.remaining == 0; });
  if (state.first_error) std::rethrow_exception(state.first_error);
}

namespace {
// The shared pool lives behind a pointer (not a function-local static) so
// configure_shared can tear it down and rebuild at a different size.
std::mutex g_shared_pool_mutex;
std::unique_ptr<ThreadPool> g_shared_pool;
std::size_t g_shared_pool_threads = 0;  // 0 = hardware
}  // namespace

ThreadPool& ThreadPool::shared() {
  std::lock_guard lock(g_shared_pool_mutex);
  if (!g_shared_pool)
    g_shared_pool = std::make_unique<ThreadPool>(g_shared_pool_threads);
  return *g_shared_pool;
}

void ThreadPool::configure_shared(std::size_t threads) {
  std::lock_guard lock(g_shared_pool_mutex);
  g_shared_pool_threads = threads;
  if (!g_shared_pool) return;  // not built yet; next shared() uses the size
  const std::size_t target =
      threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : threads;
  // Rebuild lazily: the destructor drains the queue and joins the workers.
  if (g_shared_pool->size() != target) g_shared_pool.reset();
}

}  // namespace drep::util
