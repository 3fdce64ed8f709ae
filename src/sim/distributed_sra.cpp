#include "sim/distributed_sra.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/replication.hpp"
#include "obs/metrics.hpp"
#include "sim/envelope.hpp"
#include "sim/fetch_leg.hpp"
#include "sim/reliable_channel.hpp"

namespace drep::sim {

namespace {

using core::ObjectId;

// Protocol payloads, carried inside the shared sim::Envelope. A grant and
// its token return carry the token round as the envelope seq, an announce
// and its acks the announce exchange's key, so every retransmission is
// idempotent; the announcing replicator is the message's sender and the
// announced object its bare ObjectId payload. Grants, acks and rejoins carry
// nothing else.
struct TokenReturn {
  bool list_empty;
};

/// One exchange of the protocol, as the node's channel keeps it. A grant
/// is always for the leader's current round.
struct Exchange {
  enum class Kind : std::uint8_t { kAnnounce, kRejoin, kGrant };
  Kind kind = Kind::kAnnounce;
  ObjectId object = 0;  // announce
};

class SraNode;

/// Shared run state: the leader's replication record (assembled into the
/// final scheme) and protocol counters.
struct RunState {
  std::vector<std::pair<ObjectId, SiteId>> replications;
  std::set<std::pair<ObjectId, SiteId>> replication_seen;
  std::size_t token_passes = 0;
  RetryStats retry;
  std::size_t sites_skipped = 0;
  std::size_t rejoins = 0;
  std::vector<std::unique_ptr<SraNode>> nodes;
};

constexpr std::uint64_t kNoRound = 0;  // rounds start at 1

/// The leader's patience must outlast a full visit *including* the visited
/// site's own fetch/announce retry budgets, so a token grant gets extra
/// retries: prematurely skipping a live site is the one failure mode that
/// can diverge the scheme.
constexpr std::size_t kGrantExtraRetries = 4;

class SraNode final : public Node, private ChannelClient, private FetchClient {
 public:
  SraNode(SiteId self, const core::Problem& problem, DesNetwork& network,
          SiteId leader_site, const RetryPolicy& retry, RunState& state)
      : self_(self),
        problem_(&problem),
        network_(&network),
        leader_site_(leader_site),
        state_(&state),
        channel_(network, self, retry, state.retry, *this),
        fetch_(network, self, problem, retry, state.retry, *this),
        nearest_cost_(problem.objects()),
        nearest_site_(problem.objects()) {
    // Locally known statics: SP_k and the initial SN record (= SP_k).
    double pinned = 0.0;
    double object_mass = 0.0;
    for (ObjectId k = 0; k < problem.objects(); ++k) {
      const SiteId sp = problem.primary(k);
      nearest_site_[k] = sp;
      nearest_cost_[k] = problem.cost(self_, sp);
      if (sp == self_) pinned += problem.object_size(k);
      object_mass += problem.object_size(k);
    }
    remaining_ = problem.capacity(self_) - pinned;
    // Mirror ReplicationScheme's capacity slack so local fit decisions match
    // the centralized scheme.fits() bit-for-bit near the capacity boundary.
    slack_ = core::ReplicationScheme::kCapacityRelEps *
             (1.0 + problem.capacity(self_) + object_mass);
    for (ObjectId k = 0; k < problem.objects(); ++k) {
      if (problem.primary(k) != self_ &&
          problem.object_size(k) <= remaining_ + slack_) {
        candidates_.push_back(k);
      }
    }
    if (self_ == leader_site_) {
      active_.resize(problem.sites());
      for (SiteId i = 0; i < problem.sites(); ++i) active_[i] = i;
    }
  }

  /// Leader bootstrap: grants the first token.
  void start() {
    if (self_ != leader_site_)
      throw std::logic_error("SraNode::start: not the leader");
    grant_next();
  }

  void handle(const Message& message) override {
    const Envelope& envelope = open(message);
    if (fetch_.handle(message)) return;
    switch (envelope.kind) {
      case MessageKind::kSraTokenGrant:
        on_grant(envelope.seq);
        break;
      case MessageKind::kSraTokenReturn:
        on_token_return(message.from, envelope.seq,
                        unseal<TokenReturn>(envelope));
        break;
      case MessageKind::kSraReplicaAnnounce:
        on_announce(message.from, unseal<ObjectId>(envelope));
        network_->send(self_, message.from, 0.0,
                       seal(MessageKind::kSraAnnounceAck, envelope.seq));
        break;
      case MessageKind::kSraAnnounceAck:
        on_announce_ack(message.from, envelope.seq);
        break;
      case MessageKind::kSraRejoin:
        readmit(message.from);
        network_->send(self_, message.from, 0.0,
                       seal(MessageKind::kSraRejoinAck, 0));
        break;
      case MessageKind::kSraRejoinAck:
        close_rejoins();
        break;
      default:
        throw std::logic_error("SraNode: unexpected message kind " +
                               std::string(kind_name(envelope.kind)));
    }
  }

  /// Crash wipes in-flight exchange state (volatile protocol memory); the
  /// already-committed local replicas survive, like data on disk.
  void on_crash() override {
    serving_ = false;
    fetch_.on_crash();
    channel_.close(announce_key_);
    announce_key_ = 0;
  }

  /// A recovered non-leader asks the leader to re-admit it. Each recovery
  /// opens its own rejoin exchange; the leader's ack settles all of them.
  void on_recover() override {
    if (self_ == leader_site_) return;
    (void)channel_.open({Exchange::Kind::kRejoin});
  }

 private:
  // --- channel hooks -------------------------------------------------------

  std::size_t transmit(ExchangeKey key, std::size_t /*attempt*/) override {
    const Exchange& exchange = channel_[key];
    switch (exchange.kind) {
      case Exchange::Kind::kAnnounce: {
        // Every site that has not acked yet (all others on attempt 0).
        std::size_t sent = 0;
        for (SiteId j = 0; j < problem_->sites(); ++j) {
          if (announce_acked_[j]) continue;
          ++sent;
          network_->send(self_, j, 0.0,
                         seal(MessageKind::kSraReplicaAnnounce, key,
                              exchange.object));
        }
        return sent;
      }
      case Exchange::Kind::kRejoin:
        network_->send(self_, leader_site_, 0.0,
                       seal(MessageKind::kSraRejoin, 0));
        return 1;
      case Exchange::Kind::kGrant:
        network_->send(self_, active_[granted_slot_], 0.0,
                       seal(MessageKind::kSraTokenGrant, current_round_));
        return 1;
    }
    return 0;
  }

  void give_up(ExchangeKey key) override {
    switch (channel_[key].kind) {
      case Exchange::Kind::kAnnounce:
        // The remaining sites are unreachable; they will carry a stale SN
        // record until (if ever) they learn otherwise. Give the token back.
        channel_.close(key);
        announce_key_ = 0;
        finish_visit();
        return;
      case Exchange::Kind::kRejoin:
        close_rejoins();
        return;
      case Exchange::Kind::kGrant:
        // Site presumed crashed: skip it; it may rejoin on recovery.
        channel_.close(key);
        grant_key_ = 0;
        ++state_->sites_skipped;
        skipped_.push_back(active_[granted_slot_]);
        active_.erase(active_.begin() +
                      static_cast<std::ptrdiff_t>(granted_slot_));
        cursor_ = granted_slot_;
        outstanding_ = false;
        grant_next();
        return;
    }
  }

  void close_rejoins() {
    channel_.close_if([](const Exchange& exchange) {
      return exchange.kind == Exchange::Kind::kRejoin;
    });
  }

  // --- site role -----------------------------------------------------------

  void on_grant(std::uint64_t round) {
    if (serving_ && serving_round_ == round) {
      ++state_->retry.duplicates;  // still working on this visit
      return;
    }
    if (round == last_served_round_) {
      // The leader missed our return; resend the cached reply.
      ++state_->retry.duplicates;
      ++state_->retry.retries;
      network_->send(self_, leader_site_, 0.0,
                     seal(MessageKind::kSraTokenReturn, last_served_round_,
                          TokenReturn{last_return_empty_}));
      return;
    }
    begin_visit(round);
  }

  void begin_visit(std::uint64_t round) {
    serving_ = true;
    serving_round_ = round;
    // One pass over L(self): find the best strictly-positive benefit and
    // prune unprofitable / non-fitting candidates — byte-for-byte the
    // centralized SRA visit, computed from purely local state. Strict `>`
    // matches the centralized tie-break: first (lowest-id) maximal object.
    double best_benefit = 0.0;
    ObjectId best_object = 0;
    bool found = false;
    std::size_t write_pos = 0;
    for (const ObjectId k : candidates_) {
      if (problem_->object_size(k) > remaining_ + slack_) continue;
      const double benefit =
          problem_->reads(self_, k) * nearest_cost_[k] -
          (problem_->total_writes(k) - problem_->writes(self_, k)) *
              problem_->cost(self_, problem_->primary(k));
      if (benefit <= 0.0) continue;
      if (!found || benefit > best_benefit) {
        best_benefit = benefit;
        best_object = k;
        found = true;
      }
      candidates_[write_pos++] = k;
    }
    candidates_.resize(write_pos);

    if (!found) {
      finish_visit();
      return;
    }
    // The replication is committed only when the object actually arrives
    // from the nearest known replicator (or, in case it crashed, the
    // primary); until then the candidate stays in L(self) so an aborted
    // fetch leaves consistent state.
    fetch_.fetch(best_object, nearest_site_[best_object], best_object);
  }

  void fetched(std::uint64_t tag, bool arrived) override {
    const auto object = static_cast<ObjectId>(tag);
    const auto it = std::find(candidates_.begin(), candidates_.end(), object);
    if (!arrived) {
      // Every reachable holder stopped answering: the object is
      // unobtainable right now — prune it and move on.
      if (it != candidates_.end()) candidates_.erase(it);
      finish_visit();
      return;
    }
    candidates_.erase(it);
    remaining_ -= problem_->object_size(object);
    nearest_cost_[object] = 0.0;
    nearest_site_[object] = self_;
    if (self_ == leader_site_) record_replication(object, self_);
    begin_announce(object);
  }

  /// Reliable broadcast: every other site updates its SN record and acks;
  /// un-acked sites are re-announced with backoff.
  void begin_announce(ObjectId object) {
    announce_acked_.assign(problem_->sites(), false);
    announce_acked_[self_] = true;
    if (problem_->sites() == 1) {
      finish_visit();
      return;
    }
    announce_key_ = channel_.open({Exchange::Kind::kAnnounce, object});
  }

  void on_announce_ack(SiteId from, std::uint64_t id) {
    if (id != announce_key_ || announce_acked_[from]) {
      ++state_->retry.duplicates;
      return;
    }
    announce_acked_[from] = true;
    if (std::find(announce_acked_.begin(), announce_acked_.end(), false) ==
        announce_acked_.end()) {
      channel_.close(announce_key_);
      announce_key_ = 0;
      finish_visit();
    }
  }

  void on_announce(SiteId replicator, ObjectId object) {
    const double via = problem_->cost(self_, replicator);
    // Lex (cost, site id) update — the same tie-break the centralized
    // ReplicationScheme uses, so the local SN record tracks scheme.nearest()
    // exactly, not just its cost.
    if (core::closer_replica(via, replicator, nearest_cost_[object],
                             nearest_site_[object])) {
      nearest_cost_[object] = via;
      nearest_site_[object] = replicator;
    }
    if (self_ == leader_site_) record_replication(object, replicator);
  }

  void finish_visit() {
    serving_ = false;
    last_served_round_ = serving_round_;
    last_return_empty_ = candidates_.empty();
    network_->send(self_, leader_site_, 0.0,
                   seal(MessageKind::kSraTokenReturn, last_served_round_,
                        TokenReturn{last_return_empty_}));
  }

  // --- leader role ---------------------------------------------------------

  void record_replication(ObjectId object, SiteId site) {
    if (state_->replication_seen.emplace(object, site).second)
      state_->replications.emplace_back(object, site);
  }

  void grant_next() {
    if (active_.empty()) {
      finished_ = true;
      return;
    }
    const std::size_t slot = cursor_ % active_.size();
    granted_slot_ = slot;
    current_round_ = ++round_counter_;
    outstanding_ = true;
    ++state_->token_passes;
    if (active_[slot] == self_) {
      begin_visit(current_round_);  // the leader's own site takes its turn
    } else {
      grant_key_ =
          channel_.open({Exchange::Kind::kGrant}, kGrantExtraRetries);
    }
  }

  void on_token_return(SiteId from, std::uint64_t round,
                       const TokenReturn& ret) {
    if (!outstanding_ || round != current_round_) {
      ++state_->retry.duplicates;
      // A late return from a skipped site proves it alive: re-admit it.
      readmit(from);
      return;
    }
    outstanding_ = false;
    channel_.close(grant_key_);
    grant_key_ = 0;
    if (ret.list_empty) {
      active_.erase(active_.begin() +
                    static_cast<std::ptrdiff_t>(granted_slot_));
      cursor_ = granted_slot_;
    } else {
      cursor_ = granted_slot_ + 1;
    }
    grant_next();
  }

  void readmit(SiteId site) {
    const auto it = std::find(skipped_.begin(), skipped_.end(), site);
    if (it == skipped_.end()) return;
    skipped_.erase(it);
    active_.push_back(site);
    ++state_->rejoins;
    if (finished_) {
      // The token loop had wound down; restart it for the returnee.
      finished_ = false;
      if (!outstanding_) grant_next();
    }
  }

  SiteId self_;
  const core::Problem* problem_;
  DesNetwork* network_;
  SiteId leader_site_;
  RunState* state_;
  ReliableChannel<Exchange> channel_;
  FetchLeg fetch_;

  // Site-local state.
  std::vector<double> nearest_cost_;
  std::vector<SiteId> nearest_site_;
  std::vector<ObjectId> candidates_;
  double remaining_ = 0.0;
  double slack_ = 0.0;  // ReplicationScheme::capacity_slack(self_)

  // Visit in flight at this site.
  bool serving_ = false;
  std::uint64_t serving_round_ = kNoRound;
  std::uint64_t last_served_round_ = kNoRound;
  bool last_return_empty_ = false;
  ExchangeKey announce_key_ = 0;  // 0 = no announce outstanding
  std::vector<bool> announce_acked_;

  // Leader-only state.
  std::vector<SiteId> active_;
  std::vector<SiteId> skipped_;
  std::size_t cursor_ = 0;
  std::size_t granted_slot_ = 0;
  std::uint64_t round_counter_ = kNoRound;
  std::uint64_t current_round_ = kNoRound;
  ExchangeKey grant_key_ = 0;  // 0 while the leader visits itself
  bool outstanding_ = false;
  bool finished_ = false;
};

}  // namespace

DistributedSraResult run_distributed_sra(const core::Problem& problem,
                                         SiteId leader_site,
                                         double latency_per_cost) {
  DistributedSraOptions options;
  options.leader_site = leader_site;
  options.latency_per_cost = latency_per_cost;
  return run_distributed_sra(problem, options);
}

DistributedSraResult run_distributed_sra(const core::Problem& problem,
                                         const DistributedSraOptions& options) {
  if (options.leader_site >= problem.sites())
    throw std::invalid_argument("run_distributed_sra: leader out of range");
  DesNetwork network(problem.costs(), options.latency_per_cost);
  if (options.faults) {
    if (options.faults->site_down(options.leader_site, 0.0) ||
        std::any_of(options.faults->crashes.begin(),
                    options.faults->crashes.end(),
                    [&](const CrashWindow& w) {
                      return w.site == options.leader_site;
                    })) {
      throw std::invalid_argument(
          "run_distributed_sra: the fault plan crashes the leader site");
    }
    network.set_faults(*options.faults);
  }
  RunState state;
  state.nodes.reserve(problem.sites());
  for (SiteId i = 0; i < problem.sites(); ++i) {
    state.nodes.push_back(std::make_unique<SraNode>(
        i, problem, network, options.leader_site, options.retry, state));
    network.attach(i, *state.nodes[i]);
  }
  state.nodes[options.leader_site]->start();
  network.run();

  DREP_COUNT("drep_sra_protocol_retries_total", state.retry.retries);
  DREP_COUNT("drep_sra_protocol_timeouts_total", state.retry.timeouts);
  DREP_COUNT("drep_sra_protocol_give_ups_total", state.retry.give_ups);
  DREP_COUNT("drep_sra_sites_skipped_total", state.sites_skipped);
  DREP_COUNT("drep_sra_rejoins_total", state.rejoins);

  core::ReplicationScheme scheme(problem);
  for (const auto& [object, site] : state.replications) scheme.add(site, object);
  DistributedSraResult result{std::move(scheme),
                              network.stats(),
                              state.token_passes,
                              state.replications.size(),
                              network.queue().now(),
                              state.retry,
                              state.sites_skipped,
                              state.rejoins};
  return result;
}

}  // namespace drep::sim
