// sim::FetchLeg, the object-migration leg the replica-moving protocols share
// (DESIGN.md Section 8, "Fetch leg"), on a toy network: the served response,
// the holder-then-primary fallback, one callback per fetch, duplicate
// responses, and crashes.
#include "sim/fetch_leg.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace drep::sim {
namespace {

/// Sites on a line 0 - 1 - 2 - 3 (unit hops, so the worst one-way latency
/// is 3 and the auto base timeout 12); every object's primary is site 3.
core::Problem toy_problem() {
  net::CostMatrix costs(4);
  for (SiteId i = 0; i < 4; ++i) {
    for (SiteId j = i + 1; j < 4; ++j)
      costs.set(i, j, static_cast<double>(j - i));
  }
  return core::Problem(std::move(costs), {3.0, 5.0, 7.0}, {3, 3, 3},
                       {100.0, 100.0, 100.0, 100.0});
}

constexpr SiteId kPrimary = 3;

/// A site that fetches through its leg and records what the leg reports
/// back and which requests reached it.
class ToySite final : public Node, private FetchClient {
 public:
  ToySite(SiteId self, DesNetwork& network, const core::Problem& problem,
          const RetryPolicy& policy, RetryStats& stats)
      : leg_(network, self, problem, policy, stats, *this) {}

  void fetch(core::ObjectId object, SiteId holder, std::uint64_t tag) {
    leg_.fetch(object, holder, tag);
  }

  void handle(const Message& message) override {
    const Envelope& envelope = open(message);
    if (envelope.kind == MessageKind::kFetchRequest) {
      requests.push_back(envelope.seq);
      if (!answers) return;  // a holder that stopped answering
    }
    EXPECT_TRUE(leg_.handle(message));
  }

  void on_crash() override { leg_.on_crash(); }

  /// Calls back per tag: (arrived, times).
  std::map<std::uint64_t, std::pair<bool, int>> done;
  /// Exchange keys of the fetch requests this site received.
  std::vector<std::uint64_t> requests;
  bool answers = true;

 private:
  void fetched(std::uint64_t tag, bool arrived) override {
    auto& [ok, times] = done[tag];
    ok = arrived;
    ++times;
  }

  FetchLeg leg_;
};

struct ToyNet {
  explicit ToyNet(const RetryPolicy& policy = RetryPolicy{})
      : problem(toy_problem()), network(problem.costs()) {
    for (SiteId i = 0; i < 4; ++i) {
      sites.push_back(
          std::make_unique<ToySite>(i, network, problem, policy, stats));
      network.attach(i, *sites.back());
    }
  }
  ToySite& site(SiteId i) { return *sites[i]; }

  core::Problem problem;
  DesNetwork network;
  RetryStats stats;
  std::vector<std::unique_ptr<ToySite>> sites;
};

// Each request gets exactly one response, charged o_k data units; the fetch
// completes once; the leg claims its two kinds and nothing else.
TEST(FetchLeg, AnswersEachRequestWithOneObjectSizedResponse) {
  ToyNet net;
  net.site(0).fetch(2, 1, 40);  // o_2 = 7 over C(1, 0) = 1
  net.site(1).fetch(0, 3, 41);  // o_0 = 3 over C(3, 1) = 2
  net.network.run();
  EXPECT_EQ(net.site(1).requests.size(), 1u);
  EXPECT_EQ(net.site(3).requests.size(), 1u);
  const TrafficStats& traffic = net.network.stats();
  EXPECT_EQ(traffic.control_messages, 2u);  // the requests
  EXPECT_EQ(traffic.data_messages, 2u);     // one response each
  EXPECT_DOUBLE_EQ(traffic.data_traffic, 7.0 * 1.0 + 3.0 * 2.0);
  EXPECT_EQ(net.site(0).done, (std::map<std::uint64_t, std::pair<bool, int>>{
                                  {40, {true, 1}}}));
  EXPECT_EQ(net.site(1).done, (std::map<std::uint64_t, std::pair<bool, int>>{
                                  {41, {true, 1}}}));
  EXPECT_EQ(net.stats.duplicates, 0u);
  EXPECT_EQ(net.network.queue().pending(), 0u);  // unarmed: no timers
}

TEST(FetchLeg, LeavesEveryOtherKindToTheNode) {
  struct Silent final : FetchClient {
    void fetched(std::uint64_t /*tag*/, bool /*arrived*/) override {}
  };
  const core::Problem problem = toy_problem();
  DesNetwork network(problem.costs());
  RetryStats stats;
  Silent client;
  FetchLeg leg(network, 0, problem, RetryPolicy{}, stats, client);
  Message message;
  message.from = 1;
  message.envelope = seal(MessageKind::kDriftColumnAck, /*seq=*/5);
  (void)open(message);
  EXPECT_FALSE(leg.handle(message));
  EXPECT_EQ(network.stats().sent_messages, 0u);
}

// Attempts 0..max_retries/2 ask the holder; later attempts ask the object's
// primary, which always holds it.
TEST(FetchLeg, FallsBackToThePrimaryPastHalfTheRetryBudget) {
  for (const std::size_t max_retries : {2u, 4u, 6u}) {
    RetryPolicy policy;
    policy.max_retries = max_retries;
    ToyNet net(policy);
    net.network.set_faults(FaultPlan{});  // armed, nothing fails
    net.site(1).answers = false;
    net.site(0).fetch(1, 1, 7);
    net.network.run();
    SCOPED_TRACE("max_retries=" + std::to_string(max_retries));
    EXPECT_EQ(net.site(1).requests.size(), max_retries / 2 + 1);
    ASSERT_EQ(net.site(kPrimary).requests.size(), 1u);
    // Every attempt is the same exchange.
    EXPECT_EQ(net.site(kPrimary).requests[0], net.site(1).requests[0]);
    EXPECT_EQ(net.site(0).done,
              (std::map<std::uint64_t, std::pair<bool, int>>{{7, {true, 1}}}));
    EXPECT_EQ(net.stats.retries, max_retries / 2 + 1);
    EXPECT_EQ(net.stats.give_ups, 0u);
  }
}

// Neither the holder nor the primary answers: the fetch gives up, closes,
// and calls back once with arrived == false.
TEST(FetchLeg, GiveUpCallsBackOnceWithoutTheObject) {
  RetryPolicy policy;
  policy.max_retries = 3;
  ToyNet net(policy);
  net.network.set_faults(FaultPlan{});
  net.site(2).answers = false;
  net.site(kPrimary).answers = false;
  net.site(0).fetch(0, 2, 9);
  net.network.run();
  EXPECT_EQ(net.site(2).requests.size(), 2u);
  EXPECT_EQ(net.site(kPrimary).requests.size(), 2u);
  EXPECT_EQ(net.site(0).done,
            (std::map<std::uint64_t, std::pair<bool, int>>{{9, {false, 1}}}));
  EXPECT_EQ(net.stats.give_ups, 1u);
  EXPECT_EQ(net.network.stats().data_messages, 0u);
}

// Seeded drop/spike schedules, with crashes only at sites that do not
// fetch: every fetch calls back exactly once, arrived or given up.
TEST(FetchLeg, EachFetchCallsBackExactlyOnce) {
  util::Rng draw(77);
  std::size_t gave_up = 0;
  std::size_t arrived = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = 0.15 * static_cast<double>(draw.below(4));
    plan.spike_probability = 0.2 * static_cast<double>(draw.below(3));
    plan.spike_factor = 1.0 + static_cast<double>(draw.below(4));
    if (draw.below(2) == 0) {
      const double from = draw.uniform_real(0.0, 50.0);
      plan.crashes.push_back({2, from, from + draw.uniform_real(5.0, 200.0)});
    }
    RetryPolicy policy;
    policy.max_retries = 1 + draw.below(4);
    ToyNet net(policy);
    net.network.set_faults(plan);
    const std::size_t fetches = 12;
    for (std::uint64_t tag = 0; tag < fetches; ++tag) {
      net.site(static_cast<SiteId>(tag % 2))
          .fetch(static_cast<core::ObjectId>(tag % 3), 2, tag);
    }
    net.network.run();
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::size_t callbacks = 0;
    std::size_t failures = 0;
    for (const SiteId requester : {0u, 1u}) {
      for (const auto& [tag, outcome] : net.site(requester).done) {
        EXPECT_EQ(tag % 2, requester);
        EXPECT_EQ(outcome.second, 1) << "tag " << tag;
        ++callbacks;
        if (!outcome.first) ++failures;
      }
    }
    EXPECT_EQ(callbacks, fetches);
    EXPECT_EQ(failures, net.stats.give_ups);
    gave_up += failures;
    arrived += callbacks - failures;
  }
  // The schedules actually bit both ways.
  EXPECT_GT(gave_up, 0u);
  EXPECT_GT(arrived, 0u);
}

// A repeated response, and one that lands after the fetch gave up, each
// count one duplicate and call nothing back.
TEST(FetchLeg, RepeatedOrLateResponsesCountOneDuplicateEach) {
  {
    ToyNet net;
    net.site(0).fetch(1, 1, 3);
    net.network.run();
    ASSERT_EQ(net.site(1).requests.size(), 1u);
    // The holder answers the same exchange a second time.
    net.network.send(1, 0, net.problem.object_size(1),
                     seal(MessageKind::kFetchResponse,
                          net.site(1).requests[0], core::ObjectId{1}));
    net.network.run();
    EXPECT_EQ(net.stats.duplicates, 1u);
    EXPECT_EQ(net.site(0).done,
              (std::map<std::uint64_t, std::pair<bool, int>>{{3, {true, 1}}}));
  }
  {
    // Every message is spiked far past the retry budget: the fetch gives up
    // before any response lands, and each late response is a duplicate.
    FaultPlan plan;
    plan.spike_probability = 1.0;
    plan.spike_factor = 1000.0;
    ToyNet net;
    net.network.set_faults(plan);
    net.site(0).fetch(2, 1, 4);
    net.network.run();
    EXPECT_EQ(net.site(0).done,
              (std::map<std::uint64_t, std::pair<bool, int>>{{4, {false, 1}}}));
    EXPECT_EQ(net.stats.give_ups, 1u);
    const std::size_t responses = 1 + RetryPolicy{}.max_retries;
    EXPECT_EQ(net.network.stats().data_messages, responses);
    EXPECT_EQ(net.stats.duplicates, responses);
  }
}

// A crash drops the in-flight fetch with no callback; the response that
// still arrives after recovery is a duplicate, and a later fetch works.
TEST(FetchLeg, CrashDropsInFlightFetchesWithoutCallback) {
  FaultPlan plan;
  plan.crashes.push_back({0, 1.0, 5.0});
  ToyNet net;
  net.network.set_faults(plan);
  // Request lands at site 3 at t=3, the response at t=6, after recovery.
  net.site(0).fetch(0, kPrimary, 11);
  net.network.queue().schedule(20.0, [&net] { net.site(0).fetch(1, 1, 12); });
  net.network.run();
  EXPECT_EQ(net.site(0).done,
            (std::map<std::uint64_t, std::pair<bool, int>>{{12, {true, 1}}}));
  EXPECT_EQ(net.stats.duplicates, 1u);
  EXPECT_EQ(net.stats.give_ups, 0u);
  EXPECT_EQ(net.network.stats().data_messages, 2u);
}

}  // namespace
}  // namespace drep::sim
