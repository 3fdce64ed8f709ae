#pragma once
// Discrete-event simulation kernel: a time-ordered queue of closures with
// FIFO tie-breaking. Deliberately minimal — the network layer (des.hpp)
// builds message passing on top of it.
//
// Ordering contract: events pop in ascending lexicographic (time, seq)
// order, where seq is a monotonic sequence number assigned at schedule()
// time. Same-timestamp events therefore run in exactly the order they were
// scheduled (FIFO per timestamp), including events scheduled from inside a
// running handler at the current instant — trace replay's t=0 injections,
// dgra/dagra's schedule(0.0, ...) kicks and the crash edges DesNetwork
// schedules before any bootstrap traffic rely on this. -0.0 and +0.0 are one
// instant (now() reports +0.0). Non-finite timestamps are rejected at
// schedule(): a NaN key has no place in a strict weak order. Pinned by the
// EventQueue property tests.
//
// Layout (DESIGN.md Section 8, "DES kernel"): one FIFO bucket per timestamp
// under a binary min-heap of trivially copyable (time, seq, bucket) keys,
// seq taken when the bucket opens. schedule() appends only to the newest
// open bucket of its exact time, found through a fixed direct-mapped table;
// a miss opens a fresh bucket with a larger seq and never reuses an older
// one. Each bucket thus holds a contiguous seq range of its time's events,
// so popping buckets by key, each front to back, is the (time, seq) order.
// Buckets keep their vectors when recycled, so a warmed-up queue allocates
// nothing per event or per timestamp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace drep::sim {

using SimTime = double;

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Schedules `handler` at absolute time `at` (finite and >= now(); throws
  /// std::invalid_argument otherwise). Events at equal times run in
  /// scheduling order (the (time, seq) contract above).
  void schedule(SimTime at, Handler handler);
  /// Schedules `handler` `delay` time units from now.
  void schedule_in(SimTime delay, Handler handler);

  /// Pops and runs the earliest event, advancing now(). Returns false when
  /// the queue is empty. The event is consumed before its handler runs, so
  /// a handler that throws leaves the rest of the queue runnable.
  bool run_next();

  /// Runs until the queue drains or `max_events` events have run; returns
  /// the number of events processed by this call. Throws std::runtime_error
  /// when the cap is hit (runaway simulation guard).
  std::size_t run(std::size_t max_events = 100'000'000);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::size_t processed() const noexcept { return processed_; }

 private:
  /// Heap entry of one open bucket.
  struct Key {
    SimTime at;
    std::uint64_t seq;  // taken when the bucket opened; unique per bucket
    std::uint32_t bucket;
  };
  /// Strict weak order for the min-heap: later (time, seq) sorts first out.
  /// Sound only because schedule() guarantees `at` is never NaN.
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  /// The events of one instant, run from `head` in append order.
  struct Bucket {
    std::vector<Handler> events;
    std::size_t head = 0;
  };
  /// Newest open bucket of a time, one per table slot.
  struct Newest {
    SimTime at = 0.0;
    std::uint32_t bucket = kNone;
  };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr int kTableBits = 10;

  [[nodiscard]] static std::size_t slot_of(SimTime at) noexcept;
  /// Claims a recycled (or new) empty bucket.
  [[nodiscard]] std::uint32_t claim_bucket();
  /// Drops the exhausted bucket at the heap top and recycles it.
  void retire_top();

  std::vector<Key> heap_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::array<Newest, std::size_t{1} << kTableBits> newest_{};
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  std::size_t processed_ = 0;
};

}  // namespace drep::sim
