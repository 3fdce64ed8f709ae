// sim::ReliableChannel: the exactly-once receive filter, the exchange table,
// and seeded drop/spike/crash schedules over a toy 3-node request/ack
// protocol (DESIGN.md Section 8, "ReliableChannel").
#include "sim/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "util/rng.hpp"

namespace drep::sim {
namespace {

// --- receive filter and exchange table -------------------------------------

/// A client that records what the channel asks of it and sends nothing.
class Recorder final : public ChannelClient {
 public:
  std::size_t transmit(ExchangeKey key, std::size_t attempt) override {
    transmits.emplace_back(key, attempt);
    return 1;
  }
  void give_up(ExchangeKey key) override { give_ups.push_back(key); }

  std::vector<std::pair<ExchangeKey, std::size_t>> transmits;
  std::vector<ExchangeKey> give_ups;
};

net::CostMatrix unit_costs(std::size_t sites) {
  net::CostMatrix costs(sites);
  for (net::SiteId i = 0; i < sites; ++i) {
    for (net::SiteId j = i + 1; j < sites; ++j) costs.set(i, j, 1.0);
  }
  return costs;
}

// accept() admits each (sender, stream, seq) once, whatever arrived first:
// an overtaken message is a first delivery, not a stale duplicate.
TEST(ReliableChannel, AcceptIsExactlyOnceInAnyOrder) {
  const net::CostMatrix costs = unit_costs(2);
  DesNetwork network(costs);
  RetryStats stats;
  Recorder client;
  ReliableChannel<int> channel(network, 0, RetryPolicy{}, stats, client);
  EXPECT_TRUE(channel.accept(0, 64, 2));
  EXPECT_TRUE(channel.accept(0, 64, 1));   // overtaken by seq 2: still new
  EXPECT_FALSE(channel.accept(0, 64, 2));  // duplicate
  EXPECT_FALSE(channel.accept(0, 64, 1));
  EXPECT_TRUE(channel.accept(0, 65, 1));   // kinds are separate streams
  EXPECT_TRUE(channel.accept(1, 64, 1));   // so are senders
  // Thousands of sparse ids, inserted out of order, all admitted once.
  for (std::uint64_t seq = 5000; seq > 3; --seq)
    EXPECT_TRUE(channel.accept(2, 7, seq * 977)) << seq;
  for (std::uint64_t seq = 4; seq <= 5000; ++seq)
    EXPECT_FALSE(channel.accept(2, 7, seq * 977)) << seq;
  EXPECT_EQ(stats.duplicates, 0u);  // accept() counts nothing itself
}

// Keys are never 0 and stay unique when a slot is reused; settle() of a
// closed key counts a duplicate.
TEST(ReliableChannel, KeysSurviveSlotReuse) {
  const net::CostMatrix costs = unit_costs(2);
  DesNetwork network(costs);
  RetryStats stats;
  Recorder client;
  ReliableChannel<int> channel(network, 0, RetryPolicy{}, stats, client);
  const ExchangeKey first = channel.open(7);
  EXPECT_NE(first, 0u);
  EXPECT_TRUE(channel.settle(first));
  const ExchangeKey second = channel.open(8);  // reuses the freed slot
  EXPECT_NE(second, first);
  EXPECT_FALSE(channel.is_open(first));
  EXPECT_EQ(channel.find(first), nullptr);
  ASSERT_NE(channel.find(second), nullptr);
  EXPECT_EQ(*channel.find(second), 8);
  EXPECT_FALSE(channel.settle(first));
  EXPECT_EQ(stats.duplicates, 1u);
  // Unarmed: each open transmitted attempt 0 once and armed no timer.
  EXPECT_EQ(client.transmits.size(), 2u);
  EXPECT_EQ(network.queue().pending(), 0u);
}

TEST(ReliableChannel, DeadlineFollowsThePolicy) {
  const net::CostMatrix costs = unit_costs(2);  // worst latency 1: base 4
  DesNetwork network(costs);
  RetryStats stats;
  Recorder client;
  RetryPolicy policy;
  policy.max_retries = 4;
  ReliableChannel<int> channel(network, 0, policy, stats, client);
  EXPECT_DOUBLE_EQ(channel.deadline(), policy.give_up_time(4.0) + 8.0);
}

// --- a toy request/ack protocol over seeded fault schedules ----------------

/// Each node sends requests to its peers; a receiver hands every request to
/// the application through accept() and acks each delivery; the ack
/// settles the sender's exchange. A recovering node restarts what it still
/// has open.
class ToyNode final : public Node, private ChannelClient {
 public:
  struct Request {
    SiteId to = 0;
  };

  ToyNode(SiteId self, DesNetwork& network, const RetryPolicy& policy,
          RetryStats& stats)
      : self_(self), network_(&network), channel_(network, self, policy,
                                                  stats, *this) {}

  void request(SiteId to) { sent_.push_back(channel_.open({to})); }

  void handle(const Message& message) override {
    const Envelope& envelope = open(message);
    if (envelope.kind == MessageKind::kDriftColumnUpdate) {
      network_->send(self_, message.from, 0.0,
                     seal(MessageKind::kDriftColumnAck, envelope.seq));
      if (channel_.accept(message))
        ++delivered[{message.from, envelope.seq}];
      return;
    }
    if (channel_.settle(envelope.seq)) ++completed[envelope.seq];
  }

  void on_recover() override {
    for (const ExchangeKey key : sent_) {
      if (channel_.is_open(key)) channel_.restart(key);
    }
  }

  [[nodiscard]] const std::vector<ExchangeKey>& sent() const { return sent_; }

  /// Application deliveries per (sender, key) at this receiver.
  std::map<std::pair<std::size_t, std::uint64_t>, int> delivered;
  /// Acks that settled one of this node's exchanges, per key.
  std::map<ExchangeKey, int> completed;
  std::map<ExchangeKey, int> gave_up;

 private:
  std::size_t transmit(ExchangeKey key, std::size_t /*attempt*/) override {
    network_->send(self_, channel_[key].to, 1.0,
                   seal(MessageKind::kDriftColumnUpdate, key));
    return 1;
  }
  void give_up(ExchangeKey key) override {
    ++gave_up[key];
    channel_.close(key);
  }

  SiteId self_;
  DesNetwork* network_;
  ReliableChannel<Request> channel_;
  std::vector<ExchangeKey> sent_;
};

struct ToyRun {
  TrafficStats traffic;
  RetryStats stats;
  std::size_t events = 0;
  std::size_t exchanges = 0;
  std::size_t gave_up = 0;
  std::size_t completed = 0;
  std::vector<std::string> violations;
};

net::CostMatrix toy_costs() {
  net::CostMatrix costs(3);
  costs.set(0, 1, 1.0);
  costs.set(1, 2, 2.0);
  costs.set(0, 2, 3.0);
  return costs;
}

ToyRun run_toy(const std::optional<FaultPlan>& plan, std::uint64_t seed,
               std::size_t per_node = 20) {
  const net::CostMatrix costs = toy_costs();
  DesNetwork network(costs);
  if (plan) network.set_faults(*plan);
  ToyRun run;
  std::vector<std::unique_ptr<ToyNode>> nodes;
  for (SiteId i = 0; i < 3; ++i) {
    nodes.push_back(
        std::make_unique<ToyNode>(i, network, RetryPolicy{}, run.stats));
    network.attach(i, *nodes.back());
  }
  util::Rng rng(seed);
  for (std::size_t n = 0; n < per_node; ++n) {
    for (SiteId i = 0; i < 3; ++i)
      nodes[i]->request(static_cast<SiteId>((i + 1 + rng.below(2)) % 3));
  }
  network.run();
  run.traffic = network.stats();
  run.events = network.queue().processed();

  for (SiteId i = 0; i < 3; ++i) {
    const ToyNode& sender = *nodes[i];
    for (const ExchangeKey key : sender.sent()) {
      ++run.exchanges;
      const auto gave_up = sender.gave_up.find(key);
      const bool given_up = gave_up != sender.gave_up.end();
      if (given_up) {
        ++run.gave_up;
        if (gave_up->second != 1)
          run.violations.push_back("give-up hook fired " +
                                   std::to_string(gave_up->second) + " times");
      }
      const auto completed = sender.completed.find(key);
      const int acks = completed == sender.completed.end() ? 0
                                                            : completed->second;
      run.completed += static_cast<std::size_t>(acks);
      int deliveries = 0;
      for (const auto& receiver : nodes) {
        const auto it = receiver->delivered.find({i, key});
        if (it != receiver->delivered.end()) deliveries += it->second;
      }
      if (deliveries > 1)
        run.violations.push_back("a request reached the application " +
                                 std::to_string(deliveries) + " times");
      if (!given_up && (deliveries != 1 || acks != 1)) {
        run.violations.push_back(
            "an exchange that never gave up was delivered " +
            std::to_string(deliveries) + " times and settled " +
            std::to_string(acks) + " times");
      }
      if (given_up && acks != 0)
        run.violations.push_back("a given-up exchange was settled");
    }
  }
  if (run.gave_up != run.stats.give_ups)
    run.violations.push_back("give-up count mismatch");
  return run;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// Seeded drop/spike/crash schedules: every exchange that did not give up
// reaches the application exactly once, whatever the arrival order, and a
// given-up one at most once.
TEST(ReliableChannel, SeededFaultSchedulesDeliverExactlyOnce) {
  util::Rng draw(2024);
  std::size_t gave_up = 0, spiked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = 0.1 * static_cast<double>(draw.below(5));
    plan.spike_probability = 0.15 * static_cast<double>(draw.below(4));
    plan.spike_factor = 1.0 + static_cast<double>(draw.below(6));
    for (std::size_t c = draw.below(3); c > 0; --c) {
      const double from = draw.uniform_real(0.0, 200.0);
      plan.crashes.push_back({static_cast<net::SiteId>(draw.below(3)), from,
                              from + draw.uniform_real(1.0, 400.0)});
    }
    const ToyRun run = run_toy(plan, seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_TRUE(run.violations.empty()) << join(run.violations);
    EXPECT_EQ(run.completed + run.gave_up, run.exchanges);
    gave_up += run.gave_up;
    spiked += run.traffic.latency_spikes;
  }
  // The schedules actually bit: some exchanges gave up, some were spiked.
  EXPECT_GT(gave_up, 0u);
  EXPECT_GT(spiked, 0u);
}

// Spikes reorder deliveries and trigger retransmissions but lose nothing,
// so nothing may give up and nothing may be missed.
TEST(ReliableChannel, SpikeOnlyPlanGivesUpNothing) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.spike_probability = 0.4;
    plan.spike_factor = 4.0;
    const ToyRun run = run_toy(plan, seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_TRUE(run.violations.empty()) << join(run.violations);
    EXPECT_EQ(run.gave_up, 0u);
    EXPECT_EQ(run.stats.give_ups, 0u);
    EXPECT_EQ(run.completed, run.exchanges);
    EXPECT_GT(run.traffic.latency_spikes, 0u);
  }
}

// Without a plan the channel is invisible: no timer is ever scheduled and
// the only messages are the requests and the protocol's own acks.
TEST(ReliableChannel, NoPlanSchedulesNoTimerAndSendsNothingExtra) {
  const ToyRun run = run_toy(std::nullopt, 3);
  EXPECT_TRUE(run.violations.empty()) << join(run.violations);
  EXPECT_EQ(run.traffic.sent_messages, 2 * run.exchanges);
  EXPECT_EQ(run.events, run.traffic.sent_messages);  // deliveries only
  EXPECT_EQ(run.stats.retries, 0u);
  EXPECT_EQ(run.stats.timeouts, 0u);
  EXPECT_EQ(run.stats.give_ups, 0u);
  EXPECT_EQ(run.stats.duplicates, 0u);
}

// A peer that is down for the whole budget makes every exchange to it give
// up, each firing the hook exactly once; its own exchanges restart when it
// recovers.
TEST(ReliableChannel, GiveUpFiresItsHookOnce) {
  FaultPlan plan;
  plan.crashes.push_back({2, 0.0, 5000.0});
  const ToyRun run = run_toy(plan, 5);
  EXPECT_GT(run.gave_up, 0u);
  EXPECT_EQ(run.gave_up, run.stats.give_ups);
  EXPECT_TRUE(run.violations.empty()) << join(run.violations);
}

// Every message spiked far past the retry budget: each exchange gives up
// before its reply lands, and the late reply is counted as a duplicate
// instead of settling anything.
TEST(ReliableChannel, ReplyAfterGiveUpIsADuplicate) {
  FaultPlan plan;
  plan.spike_probability = 1.0;
  plan.spike_factor = 1000.0;
  const ToyRun run = run_toy(plan, 7, 4);
  EXPECT_TRUE(run.violations.empty()) << join(run.violations);
  EXPECT_EQ(run.gave_up, run.exchanges);
  EXPECT_EQ(run.completed, 0u);
  // One ack per delivered copy (request and retransmissions alike), every
  // one of them late.
  EXPECT_EQ(run.stats.duplicates,
            run.exchanges * (1 + RetryPolicy{}.max_retries));
}

}  // namespace
}  // namespace drep::sim
