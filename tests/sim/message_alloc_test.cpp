// The DES message path allocates nothing once warmed up: a payload of 8
// bytes or less rides inline in the envelope's std::any, Message carries
// the envelope by value, and the in-flight store and the event queue reuse
// their slots. The binary replaces global operator new to count
// allocations, so it runs apart from the other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "core/problem.hpp"
#include "sim/des.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t /*size*/) noexcept {
  std::free(block);
}

namespace drep::sim {
namespace {

/// Site 0 ships one object at a time to site 1 and ships the next when the
/// ack comes back. No gtest assertion runs inside a handler: a failure
/// message would allocate while counting.
class Shipper final : public Node {
 public:
  explicit Shipper(DesNetwork& network) : network_(&network) {}

  void start(std::size_t rounds) {
    remaining_ = rounds;
    ship();
  }
  void handle(const Message& message) override {
    if (open(message).kind != MessageKind::kReplayUpdateAck)
      throw std::logic_error("Shipper: not an ack");
    ++acked;
    ship();
  }

  std::size_t acked = 0;

 private:
  void ship() {
    if (remaining_ == 0) return;
    --remaining_;
    network_->send(0, 1, 1.0,
                   seal(MessageKind::kReplayUpdate, remaining_,
                        static_cast<core::ObjectId>(remaining_ % 7)));
  }

  DesNetwork* network_;
  std::size_t remaining_ = 0;
};

/// Site 1 takes each object and acks it with a payload-less envelope.
class Acker final : public Node {
 public:
  explicit Acker(DesNetwork& network) : network_(&network) {}

  void handle(const Message& message) override {
    const Envelope& envelope = open(message);
    objects += unseal<core::ObjectId>(envelope);
    network_->send(1, 0, 0.0,
                   seal(MessageKind::kReplayUpdateAck, envelope.seq));
  }

  std::size_t objects = 0;

 private:
  DesNetwork* network_;
};

TEST(MessageAllocation, WarmPingPongAllocatesNothing) {
  net::CostMatrix costs(2);
  costs.set(0, 1, 1.5);
  DesNetwork network(costs);
  Shipper shipper(network);
  Acker acker(network);
  network.attach(0, shipper);
  network.attach(1, acker);
  constexpr std::size_t kRounds = 1000;

  shipper.start(kRounds);  // warm-up: the stores grow to their working size
  network.run();
  ASSERT_EQ(shipper.acked, kRounds);

  g_allocations = 0;
  g_counting = true;
  shipper.start(kRounds);
  network.run();
  g_counting = false;

  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(shipper.acked, 2 * kRounds);
  EXPECT_EQ(acker.objects, 2 * 2997u);  // Σ (r % 7) over r < 1000, twice
  EXPECT_EQ(network.stats().data_messages, 2 * kRounds);
  EXPECT_EQ(network.stats().control_messages, 2 * kRounds);
}

}  // namespace
}  // namespace drep::sim
