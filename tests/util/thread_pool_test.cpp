#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "obs/metrics.hpp"
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace drep::util {
namespace {

TEST(ThreadPool, RunsEveryIteration) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t, std::size_t i) { hits[i]++; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(0, 10,
                    [&](std::size_t, std::size_t i) { order.push_back(i); });
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, BlockedVariantLanesClaimEveryIndexOnce) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kRange = 500;
  ThreadPool pool(kWorkers);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(kRange);
    std::vector<std::atomic<int>> active(kWorkers);
    std::atomic<int> bad_lane{0};
    std::atomic<int> overlapping{0};
    std::atomic<int> lane0_elsewhere{0};
    std::atomic<int> other_lane_on_caller{0};
    pool.parallel_for(0, kRange, [&](std::size_t lane, std::size_t i) {
      hits[i]++;
      if (lane >= kWorkers) {
        bad_lane++;
        return;
      }
      // A lane id is held by one thread at a time: entering a lane that is
      // already active means two threads share it.
      if (active[lane].fetch_add(1) != 0) overlapping++;
      const bool on_caller = std::this_thread::get_id() == caller;
      if (lane == 0 && !on_caller) lane0_elsewhere++;
      if (lane != 0 && on_caller) other_lane_on_caller++;
      volatile double sink = 0.0;  // a little work, so lanes overlap in time
      for (std::size_t w = 0; w < (i % 7) * 200; ++w) sink = sink + 1.0;
      active[lane].fetch_sub(1);
    });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
    EXPECT_EQ(bad_lane.load(), 0);
    EXPECT_EQ(overlapping.load(), 0);
    EXPECT_EQ(lane0_elsewhere.load(), 0);
    EXPECT_EQ(other_lane_on_caller.load(), 0);
  }
}

TEST(ThreadPool, SlowIndexDoesNotHoldBackTheRest) {
  // Index 0 waits until every other index has run. Under fixed contiguous
  // blocks its neighbours would queue behind it in its own block and the
  // wait would time out; claiming lanes take them instead.
  constexpr std::size_t kRange = 64;
  ThreadPool pool(4);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;
  bool others_finished = false;
  pool.parallel_for(0, kRange, [&](std::size_t, std::size_t i) {
    std::unique_lock lock(mutex);
    if (i == 0) {
      others_finished = cv.wait_for(lock, std::chrono::seconds(30),
                                    [&] { return done == kRange - 1; });
      return;
    }
    if (++done == kRange - 1) cv.notify_all();
  });
  EXPECT_TRUE(others_finished);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t, std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, AllIterationsRunDespiteException) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  try {
    pool.parallel_for(0, 100, [&](std::size_t, std::size_t i) {
      count++;
      if (i % 10 == 0) throw std::runtime_error("boom");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // A lane stops at its first throw and the others keep claiming, so some
  // iterations ran and none twice.
  EXPECT_GT(count.load(), 0);
  EXPECT_LE(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::size_t, std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t, std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  std::mutex mutex;
  std::condition_variable cv;
  pool.submit([&] {
    // Notify under the lock: otherwise the waiter can wake on the predicate
    // and destroy `cv` while notify_one is still executing.
    std::lock_guard task_lock(mutex);
    ran = true;
    cv.notify_one();
  });
  std::unique_lock lock(mutex);
  cv.wait_for(lock, std::chrono::seconds(5), [&] { return ran.load(); });
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, SubmittedTaskExceptionDoesNotKillWorker) {
  // A directly-submitted task has no caller to rethrow into; an escaping
  // exception used to std::terminate the process. The worker must park the
  // exception (count + log) and keep serving.
  ThreadPool pool(1);  // single worker: FIFO order, and the survivor IS the
                       // thread that just threw
#if !defined(DREP_OBS_DISABLED)
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  const obs::MetricSample* sample =
      before.find("drep_pool_task_exceptions_total");
  const double parked_before = sample != nullptr ? sample->value : 0.0;
#endif
  pool.submit([] { throw std::runtime_error("boom"); });
  pool.submit([] { throw 42; });  // non-std exceptions must park too

  std::atomic<bool> ran{false};
  std::mutex mutex;
  std::condition_variable cv;
  pool.submit([&] {
    std::lock_guard task_lock(mutex);
    ran = true;
    cv.notify_one();
  });
  {
    std::unique_lock lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return ran.load(); });
  }
  EXPECT_TRUE(ran.load());

  // The inside-pool flag must have been cleared by the RAII guard despite
  // the throws: a nested parallel_for from the worker still runs inline,
  // and a top-level one still fans out and completes.
  std::atomic<int> count{0};
  pool.parallel_for(0, 64, [&](std::size_t, std::size_t) { count++; });
  EXPECT_EQ(count.load(), 64);

#if !defined(DREP_OBS_DISABLED)
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  const obs::MetricSample* parked =
      after.find("drep_pool_task_exceptions_total");
  ASSERT_NE(parked, nullptr);
  EXPECT_DOUBLE_EQ(parked->value, parked_before + 2.0);
#endif
}

TEST(ThreadPool, SharedPoolIsUsable) {
  std::atomic<int> count{0};
  ThreadPool::shared().parallel_for(
      0, 32, [&](std::size_t, std::size_t) { count++; });
  EXPECT_EQ(count.load(), 32);
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
  ThreadPool pool(8);
  std::vector<double> values(10000);
  std::iota(values.begin(), values.end(), 0.0);
  std::vector<double> partial(8, 0.0);
  pool.parallel_for(0, values.size(), [&](std::size_t lane, std::size_t i) {
    partial[lane] += values[i];
  });
  const double total = std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, std::accumulate(values.begin(), values.end(), 0.0));
}

}  // namespace
}  // namespace drep::util
