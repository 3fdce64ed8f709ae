// Stress tests for ThreadPool beyond the basic unit tests: many threads
// driving parallel_for on one pool at once, bodies that throw, nested
// submits and nested parallel loops. Every test doubles as a
// deadlock check (it must simply finish) and the whole file is part of the
// TSan job in scripts/sanitize.sh.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace drep::util {
namespace {

TEST(ThreadPoolStress, ConcurrentParallelForBlockedCallers) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kRange = 257;  // not a multiple of the lane count
  std::vector<std::thread> callers;
  std::vector<std::atomic<std::size_t>> sums(kCallers);
  for (auto& sum : sums) sum = 0;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        pool.parallel_for(1, kRange + 1,
                          [&sums, c](std::size_t, std::size_t i) {
                            sums[c].fetch_add(i);
                          });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  constexpr std::size_t kExpected = kRounds * kRange * (kRange + 1) / 2;
  for (const auto& sum : sums) EXPECT_EQ(sum.load(), kExpected);
}

TEST(ThreadPoolStress, FirstExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(3);
  std::atomic<std::size_t> completed{0};
  // Several iterations throw; exactly one exception must reach the caller,
  // after every lane has finished (no detached work left behind).
  EXPECT_THROW(
      pool.parallel_for(0, 300,
                        [&completed](std::size_t, std::size_t i) {
                          if (i % 50 == 49) {
                            throw std::runtime_error("iteration " +
                                                     std::to_string(i));
                          }
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_LT(completed.load(), 300u);
  // The pool must stay fully usable after an exceptional loop.
  std::atomic<std::size_t> after{0};
  pool.parallel_for(
      0, 100, [&after](std::size_t, std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100u);
}

TEST(ThreadPoolStress, ConcurrentThrowingCallersEachGetAnException) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 5;
  std::atomic<std::size_t> caught{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &caught, c] {
      for (int round = 0; round < 20; ++round) {
        try {
          pool.parallel_for(
              0, 64, [c](std::size_t, std::size_t i) {
                if (i == 17) throw std::invalid_argument(std::to_string(c));
              });
        } catch (const std::invalid_argument& e) {
          // The exception each caller sees must come from its own loop —
          // errors never leak across concurrent parallel_for calls.
          if (e.what() == std::to_string(c)) caught.fetch_add(1);
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(caught.load(), kCallers * 20);
}

TEST(ThreadPoolStress, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  // Each outer iteration runs a nested loop. Inside a pool worker the nested
  // call executes inline (a queued nested loop could deadlock once every
  // worker blocks on its own children); on the caller thread (lane 0) it
  // may use the pool. Either way all iterations must run exactly once.
  pool.parallel_for(0, 40, [&pool, &inner_total](std::size_t, std::size_t) {
    pool.parallel_for(
        0, 25,
        [&inner_total](std::size_t, std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 40u * 25u);
}

TEST(ThreadPoolStress, NestedExceptionPropagatesThroughOuterLoop) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(
          0, 12,
          [&pool](std::size_t, std::size_t outer) {
            pool.parallel_for(0, 8, [outer](std::size_t, std::size_t inner) {
              if (outer == 7 && inner == 3) throw std::logic_error("nested");
            });
          }),
      std::logic_error);
}

TEST(ThreadPoolStress, SubmitsFromInsideBodiesDrainBeforeDestruction) {
  std::atomic<std::size_t> side_tasks{0};
  std::atomic<std::size_t> iterations{0};
  {
    ThreadPool pool(3);
    pool.parallel_for(0, 60, [&pool, &side_tasks, &iterations](
                                 std::size_t, std::size_t) {
      iterations.fetch_add(1);
      pool.submit([&side_tasks] { side_tasks.fetch_add(1); });
    });
    EXPECT_EQ(iterations.load(), 60u);
    // Destruction of the pool must drain the queue, not drop it.
  }
  EXPECT_EQ(side_tasks.load(), 60u);
}

TEST(ThreadPoolStress, SharedPoolHandlesConcurrentMixedLoad) {
  // The process-wide pool is the one the GA engines use; hammer it from
  // several threads with mixed successful and throwing loops.
  std::vector<std::thread> callers;
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> failed{0};
  for (std::size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&ok, &failed, c] {
      for (int round = 0; round < 25; ++round) {
        const bool throwing = (static_cast<std::size_t>(round) + c) % 3 == 0;
        try {
          ThreadPool::shared().parallel_for(
              0, 128, [throwing](std::size_t, std::size_t i) {
                if (throwing && i == 64) throw std::runtime_error("boom");
              });
          ok.fetch_add(1);
        } catch (const std::runtime_error&) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(ok.load() + failed.load(), 100u);
  EXPECT_EQ(failed.load(), 34u);  // rounds where (round + c) % 3 == 0
}

}  // namespace
}  // namespace drep::util
