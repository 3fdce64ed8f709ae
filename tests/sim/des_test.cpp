#include "sim/des.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace drep::sim {
namespace {

net::CostMatrix line_costs() {
  net::CostMatrix costs(3);
  costs.set(0, 1, 2.0);
  costs.set(1, 2, 3.0);
  costs.set(0, 2, 5.0);
  return costs;
}

/// A message carrying a test string; the network never looks inside the
/// envelope, so any kind will do.
Envelope text(std::string value) {
  return seal(MessageKind::kGaElites, 0, std::move(value));
}
const std::string& text_of(const Message& message) {
  return unseal<std::string>(message.envelope);
}

/// Records everything it receives.
class RecorderNode final : public Node {
 public:
  void handle(const Message& message) override { received.push_back(message); }
  std::vector<Message> received;
};

TEST(DesNetwork, DeliversWithCostProportionalLatency) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs, /*latency_per_cost=*/2.0);
  RecorderNode node0, node1, node2;
  network.attach(0, node0);
  network.attach(1, node1);
  network.attach(2, node2);
  network.send(0, 2, 4.0, text("payload"));
  network.run();
  ASSERT_EQ(node2.received.size(), 1u);
  EXPECT_EQ(node2.received[0].from, 0u);
  EXPECT_DOUBLE_EQ(node2.received[0].size_units, 4.0);
  EXPECT_DOUBLE_EQ(network.queue().now(), 10.0);  // 2.0 × C(0,2)=5
  EXPECT_EQ(text_of(node2.received[0]), "payload");
}

TEST(DesNetwork, TrafficAccounting) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode nodes[3];
  for (SiteId i = 0; i < 3; ++i) network.attach(i, nodes[i]);
  network.send(0, 1, 10.0, {});  // data: 10 × 2 = 20
  network.send(1, 2, 0.0, {});   // control: free
  network.send(2, 0, 3.0, {});   // data: 3 × 5 = 15
  network.run();
  EXPECT_DOUBLE_EQ(network.stats().data_traffic, 35.0);
  EXPECT_EQ(network.stats().data_messages, 2u);
  EXPECT_EQ(network.stats().control_messages, 1u);
  EXPECT_EQ(network.stats().total_messages(), 3u);
}

TEST(DesNetwork, SelfSendIsImmediateAndFree) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode node;
  network.attach(1, node);
  network.send(1, 1, 100.0, {});
  network.run();
  ASSERT_EQ(node.received.size(), 1u);
  EXPECT_DOUBLE_EQ(network.stats().data_traffic, 0.0);  // C(1,1)=0
  EXPECT_DOUBLE_EQ(network.queue().now(), 0.0);
}

TEST(DesNetwork, UnattachedDestinationThrows) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode node;
  network.attach(0, node);
  network.send(0, 1, 1.0, {});
  EXPECT_THROW(network.run(), std::logic_error);
}

// The first run throws at the delivery to the unattached site; that message
// is spent, and a second run delivers the rest in time order with the
// conservation counts balanced.
TEST(DesNetwork, RunResumesAfterAnUnattachedDestinationThrows) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode node0;
  network.attach(0, node0);
  network.send(2, 0, 3.0, text("late"));   // t=5
  network.send(0, 1, 1.0, text("lost"));   // t=2, site 1 unattached
  network.send(0, 0, 1.0, text("early"));  // t=0
  EXPECT_THROW(network.run(), std::logic_error);
  ASSERT_EQ(node0.received.size(), 1u);
  EXPECT_EQ(network.queue().pending(), 1u);

  network.run();
  ASSERT_EQ(node0.received.size(), 2u);
  EXPECT_EQ(text_of(node0.received[0]), "early");
  EXPECT_EQ(text_of(node0.received[1]), "late");
  EXPECT_EQ(node0.received[1].from, 2u);
  EXPECT_DOUBLE_EQ(network.queue().now(), 5.0);
  const TrafficStats& stats = network.stats();
  EXPECT_EQ(stats.sent_messages, 3u);
  EXPECT_EQ(stats.sent_messages,
            stats.total_messages() + stats.dropped_messages());
}

/// Long enough that std::any keeps it on the heap.
std::string burst_payload(int i) {
  return "burst payload number " + std::to_string(i) +
         " padded well past any small-object buffer";
}

// A handler that sends a burst during its own delivery grows the in-flight
// store while the message it is handling is still in use. Every payload
// must still arrive intact, exactly once.
TEST(DesNetwork, BurstSentDuringDeliveryArrivesIntactExactlyOnce) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  constexpr int kBurst = 300;
  class Burster final : public Node {
   public:
    explicit Burster(DesNetwork& net) : net_(&net) {}
    void handle(const Message& message) override {
      received.push_back(text_of(message));
      if (received.size() > 1) return;
      // Self-sends land on this very instant; the rest cross the network.
      for (int i = 0; i < kBurst; ++i)
        net_->send(1, i % 3 == 0 ? 1 : 2, 1.0, text(burst_payload(i)));
      // The message being handled is still intact after the burst.
      EXPECT_EQ(text_of(message), "trigger");
      EXPECT_EQ(message.from, 0u);
    }
    std::vector<std::string> received;

   private:
    DesNetwork* net_;
  };
  Burster node1(network);
  RecorderNode node0, node2;
  network.attach(0, node0);
  network.attach(1, node1);
  network.attach(2, node2);
  network.send(0, 1, 1.0, text("trigger"));
  network.run();

  std::vector<int> seen(kBurst, 0);
  const auto tally = [&](const std::string& payload) {
    for (int i = 0; i < kBurst; ++i) {
      if (payload == burst_payload(i)) {
        ++seen[static_cast<std::size_t>(i)];
        return;
      }
    }
    ADD_FAILURE() << "corrupted payload: " << payload;
  };
  ASSERT_EQ(node1.received.size(), 1u + kBurst / 3);
  for (std::size_t k = 1; k < node1.received.size(); ++k)
    tally(node1.received[k]);
  for (const Message& message : node2.received)
    tally(text_of(message));
  for (int i = 0; i < kBurst; ++i)
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "payload " << i;

  const TrafficStats& stats = network.stats();
  EXPECT_EQ(stats.sent_messages, 1u + kBurst);
  EXPECT_EQ(stats.data_messages, 1u + kBurst);
  EXPECT_EQ(stats.sent_messages,
            stats.total_messages() + stats.dropped_messages());
  EXPECT_EQ(network.queue().pending(), 0u);
}

TEST(DesNetwork, AttachValidation) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode node;
  EXPECT_THROW(network.attach(3, node), std::out_of_range);
  EXPECT_THROW(DesNetwork(costs, -1.0), std::invalid_argument);
}

TEST(DesNetwork, HandlersMaySendMore) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  class Forwarder final : public Node {
   public:
    Forwarder(DesNetwork& net, SiteId self, SiteId next)
        : net_(&net), self_(self), next_(next) {}
    void handle(const Message& message) override {
      if (message.size_units > 1.0)
        net_->send(self_, next_, message.size_units - 1.0, {});
    }
    DesNetwork* net_;
    SiteId self_, next_;
  };
  Forwarder f0(network, 0, 1), f1(network, 1, 2), f2(network, 2, 0);
  network.attach(0, f0);
  network.attach(1, f1);
  network.attach(2, f2);
  network.send(2, 0, 3.0, {});  // 3 hops: 3→2→1, stops at size 1
  network.run();
  EXPECT_EQ(network.stats().data_messages, 3u);
}

}  // namespace
}  // namespace drep::sim
