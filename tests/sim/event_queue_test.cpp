#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace drep::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3.0, [&] { order.push_back(3); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_EQ(queue.processed(), 3u);
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  queue.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, HandlersCanScheduleMoreEvents) {
  EventQueue queue;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) queue.schedule_in(1.0, chain);
  };
  queue.schedule(0.0, chain);
  queue.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(queue.now(), 4.0);
}

TEST(EventQueue, RejectsPastAndEmptyHandlers) {
  EventQueue queue;
  queue.schedule(5.0, [] {});
  queue.run();
  EXPECT_THROW(queue.schedule(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(6.0, EventQueue::Handler{}), std::invalid_argument);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.run_next());
  queue.schedule(1.0, [] {});
  EXPECT_TRUE(queue.run_next());
  EXPECT_FALSE(queue.run_next());
}

TEST(EventQueue, EventCapGuardsRunaway) {
  EventQueue queue;
  std::function<void()> forever = [&] { queue.schedule_in(1.0, forever); };
  queue.schedule(0.0, forever);
  EXPECT_THROW(queue.run(100), std::runtime_error);
}

TEST(EventQueue, RejectsNonFiniteTimes) {
  // A NaN timestamp passes the `at < now_` guard (NaN comparisons are all
  // false) and then breaks the heap comparator's strict weak ordering, so
  // pop order would depend on the container's internal state. Regression:
  // non-finite times must be rejected at the door.
  EventQueue queue;
  EXPECT_THROW(
      queue.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  EXPECT_THROW(queue.schedule(std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(
      queue.schedule_in(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  queue.schedule(1.0, [] {});
  EXPECT_EQ(queue.pending(), 1u);
}

// Property: execution order is exactly ascending lexicographic (time, seq)
// with seq assigned at schedule() time — FIFO per timestamp — for any
// randomized mix of duplicate timestamps, including events scheduled from
// inside running handlers at the current instant (trace replay's t=0
// injections, dgra/dagra's schedule(0.0, ...) kicks and crash edges
// scheduled before bootstrap all share instants this way).
TEST(EventQueue, PropertyFifoPerTimestampUnderRandomizedScheduling) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    EventQueue queue;
    // Schedule log: (time, seq) in the order schedule() was called; seq is
    // simply the call index because the queue hands them out monotonically.
    std::vector<std::pair<double, std::size_t>> scheduled;
    std::vector<std::size_t> executed;  // schedule-log indices, in run order
    std::size_t next_id = 0;

    const auto add = [&](double at) {
      const std::size_t id = next_id++;
      scheduled.emplace_back(at, id);
      queue.schedule(at, [&executed, id] { executed.push_back(id); });
    };
    // Few distinct timestamps => many exact ties.
    const std::size_t initial = 30 + rng.index(30);
    for (std::size_t i = 0; i < initial; ++i)
      add(static_cast<double>(rng.index(8)));

    // A handler that occasionally re-schedules at the *current* instant and
    // at later ticks, mid-run.
    const std::size_t cascades = 10 + rng.index(10);
    for (std::size_t i = 0; i < cascades; ++i) {
      const double at = static_cast<double>(rng.index(8));
      const std::size_t id = next_id++;
      scheduled.emplace_back(at, id);
      queue.schedule(at, [&, id] {
        executed.push_back(id);
        if (rng.bernoulli(0.7)) add(queue.now());  // same-instant re-entry
        if (rng.bernoulli(0.5))
          add(queue.now() + static_cast<double>(rng.index(3)));
      });
    }
    queue.run();

    ASSERT_EQ(executed.size(), scheduled.size()) << "seed " << seed;
    // Reference model: stable sort of the schedule log by time alone — the
    // documented lex (time, seq) key, independent of any container state.
    std::vector<std::size_t> expected(scheduled.size());
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scheduled[a].first < scheduled[b].first;
                     });
    EXPECT_EQ(executed, expected) << "seed " << seed;
  }
}

// Reference model shared by the property tests: the stable sort of a
// schedule log by time alone is the documented (time, seq) order.
std::vector<std::size_t> reference_order(
    const std::vector<std::pair<double, std::size_t>>& scheduled) {
  std::vector<std::size_t> expected(scheduled.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scheduled[a].first < scheduled[b].first;
                   });
  return expected;
}

// Property at scale: thousands of distinct times interleaved with heavy ties
// still run in the reference order. Far more distinct times are live at once
// than the queue's time lookup has entries, so a tie time's newest bucket is
// regularly evicted from the lookup and the time gets a second open bucket;
// handlers re-enter their own instant, including after its bucket drained.
TEST(EventQueue, PropertyFifoWithThousandsOfDistinctTimesAndHeavyTies) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    EventQueue queue;
    std::vector<std::pair<double, std::size_t>> scheduled;
    std::vector<std::size_t> executed;
    std::size_t next_id = 0;

    const auto add = [&](double at) {
      const std::size_t id = next_id++;
      scheduled.emplace_back(at, id);
      queue.schedule(at, [&executed, id] { executed.push_back(id); });
    };
    const auto add_cascade = [&](double at) {
      const std::size_t id = next_id++;
      scheduled.emplace_back(at, id);
      queue.schedule(at, [&, id] {
        executed.push_back(id);
        if (rng.bernoulli(0.5)) add(queue.now());
        if (rng.bernoulli(0.5))
          add(queue.now() + 0.0137 * static_cast<double>(rng.index(4)));
        if (rng.bernoulli(0.3))
          add(queue.now() + static_cast<double>(rng.index(3)));
      });
    };
    for (std::size_t i = 0; i < 6000; ++i) {
      const double tie = static_cast<double>(rng.index(12));
      if (i % 3 == 0) {
        add(tie);  // heavy ties on a dozen integer instants
      } else if (i % 3 == 1) {
        add(0.0137 * static_cast<double>(i));  // distinct, like spaced replay
      } else {
        add_cascade(rng.bernoulli(0.5) ? tie : rng.uniform_real(0.0, 12.0));
      }
    }
    // A lone event whose handler schedules at a later time and then at its
    // own instant: its bucket was exhausted (and may already serve the later
    // time) when it ran, so its instant must open again behind it.
    {
      const std::size_t id = next_id++;
      scheduled.emplace_back(50.5, id);
      queue.schedule(50.5, [&, id] {
        executed.push_back(id);
        add(queue.now() + 1.0);
        add(queue.now());
      });
    }
    queue.run();

    ASSERT_EQ(executed.size(), scheduled.size()) << "seed " << seed;
    EXPECT_EQ(executed, reference_order(scheduled)) << "seed " << seed;
    EXPECT_EQ(queue.pending(), 0u);
  }
}

TEST(EventQueue, SignedZerosAreOneInstant) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(0.0, [&] { order.push_back(0); });
  queue.schedule(-0.0, [&] { order.push_back(1); });
  queue.schedule(1.0, [&] { order.push_back(4); });
  queue.schedule(0.0, [&] {
    order.push_back(2);
    queue.schedule(-0.0, [&] { order.push_back(3); });
  });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(queue.now(), 1.0);
}

// A handler that throws consumes its own event and nothing else: pending()
// stays exact, and a later run() resumes in (time, seq) order, including
// events the throwing handler scheduled before it threw.
TEST(EventQueue, ThrowingHandlerLeavesTheQueueConsistent) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1.0, [&] { order.push_back(0); });
  queue.schedule(1.0, [&] {
    order.push_back(1);
    queue.schedule(1.0, [&] { order.push_back(4); });
    throw std::runtime_error("mid-bucket");
  });
  queue.schedule(1.0, [&] { order.push_back(2); });
  queue.schedule(2.0, [&] {
    order.push_back(5);
    throw std::runtime_error("last of its instant");
  });
  queue.schedule(1.0, [&] { order.push_back(3); });
  queue.schedule(3.0, [&] { order.push_back(6); });

  EXPECT_THROW(queue.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(queue.pending(), 5u);
  EXPECT_EQ(queue.processed(), 2u);
  EXPECT_EQ(queue.now(), 1.0);

  EXPECT_THROW(queue.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(queue.pending(), 1u);
  // The thrown-from instant is empty: scheduling at it again still works.
  queue.schedule(2.0, [&] { order.push_back(7); });
  EXPECT_EQ(queue.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 7, 6}));
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.processed(), 8u);
}

TEST(EventQueue, PendingCount) {
  EventQueue queue;
  queue.schedule(1.0, [] {});
  queue.schedule(2.0, [] {});
  EXPECT_EQ(queue.pending(), 2u);
  queue.run_next();
  EXPECT_EQ(queue.pending(), 1u);
}

}  // namespace
}  // namespace drep::sim
