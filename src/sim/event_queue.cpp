#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace drep::sim {

std::size_t EventQueue::slot_of(SimTime at) noexcept {
  // Fibonacci hashing of the bit pattern, folded first so that small
  // integers (whose low mantissa bits are all zero) spread too.
  auto bits = std::bit_cast<std::uint64_t>(at);
  bits ^= bits >> 29;
  bits *= 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(bits >> (64 - kTableBits));
}

void EventQueue::schedule(SimTime at, Handler handler) {
  // NaN slips past the `at < now_` guard (every NaN comparison is false)
  // and, once in the heap, violates Later's strict weak ordering — sift
  // results then depend on the container's current layout, not the
  // documented (time, seq) key. Infinities are rejected too: an event "at
  // infinity" can never legally be followed by anything.
  if (!std::isfinite(at))
    throw std::invalid_argument("EventQueue::schedule: non-finite time");
  if (at < now_)
    throw std::invalid_argument("EventQueue::schedule: event in the past");
  if (!handler)
    throw std::invalid_argument("EventQueue::schedule: empty handler");
  // -0.0 == +0.0 but their bits differ. Left apart they would hash to two
  // slots, and a +0.0 event could join an older bucket of the instant than
  // the newest one a -0.0 event opened.
  at += 0.0;
  Newest& newest = newest_[slot_of(at)];
  if (newest.bucket != kNone && newest.at == at) {
    buckets_[newest.bucket].events.push_back(std::move(handler));
  } else {
    // The bucket gets its event before its key enters the heap, so the
    // heap never names an empty bucket.
    const std::uint32_t bucket = claim_bucket();
    buckets_[bucket].events.push_back(std::move(handler));
    heap_.push_back({at, next_seq_++, bucket});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    newest = {at, bucket};
  }
  ++pending_;
}

void EventQueue::schedule_in(SimTime delay, Handler handler) {
  schedule(now_ + delay, std::move(handler));
}

std::uint32_t EventQueue::claim_bucket() {
  if (free_buckets_.empty()) {
    buckets_.emplace_back();
    return static_cast<std::uint32_t>(buckets_.size() - 1);
  }
  const std::uint32_t bucket = free_buckets_.back();
  free_buckets_.pop_back();
  return bucket;
}

void EventQueue::retire_top() {
  const Key top = heap_.front();
  Bucket& bucket = buckets_[top.bucket];
  bucket.events.clear();  // keeps the capacity for the next instant
  bucket.head = 0;
  Newest& newest = newest_[slot_of(top.at)];
  if (newest.bucket == top.bucket) newest.bucket = kNone;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  free_buckets_.push_back(top.bucket);
}

bool EventQueue::run_next() {
  if (heap_.empty()) return false;
  const Key top = heap_.front();
  Bucket& bucket = buckets_[top.bucket];
  // Consume the event before running it: the handler may schedule (growing
  // the bucket's vector) or throw. An exhausted bucket is retired first, so
  // an event scheduled at this instant by the handler opens a fresh one.
  Handler handler = std::move(bucket.events[bucket.head++]);
  if (bucket.head == bucket.events.size()) retire_top();
  now_ = top.at;
  --pending_;
  ++processed_;
  handler();
  return true;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t count = 0;
  while (run_next()) {
    if (++count >= max_events && pending_ != 0)
      throw std::runtime_error("EventQueue::run: event cap exceeded");
  }
  return count;
}

}  // namespace drep::sim
