#include "sim/monitor_protocol.hpp"

#include <memory>
#include <set>
#include <stdexcept>

#include "audit/gate.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "sim/envelope.hpp"
#include "sim/fetch_leg.hpp"
#include "sim/reliable_channel.hpp"

namespace drep::sim {

namespace {

using core::ObjectId;

// Protocol payloads, carried inside the shared sim::Envelope. A directive's
// id is the monitor channel's exchange key, carried as the envelope seq of
// the directive and of its ack, so retransmissions are idempotent. A drop
// carries the bare ObjectId; stats reports and acks carry nothing else.
struct AddReplica {
  ObjectId object;
  SiteId fetch_from;
};

/// The one exchange a site endpoint's channel keeps: its stats report.
struct Report {};

/// Site endpoint: ships its stats report (retried until acked when faults
/// are armed), answers fetches, executes directives idempotently, and acks
/// them back to the monitor site.
class SiteEndpoint final : public Node,
                           private ChannelClient,
                           private FetchClient {
 public:
  SiteEndpoint(SiteId self, SiteId monitor_site, const core::Problem& problem,
               DesNetwork& network, const RetryPolicy& retry,
               RetryStats& stats)
      : self_(self),
        monitor_site_(monitor_site),
        network_(&network),
        channel_(network, self, retry, stats, *this),
        fetch_(network, self, problem, retry, stats, *this) {}

  void start_report() { (void)channel_.open({}); }

  void handle(const Message& message) override {
    const Envelope& envelope = open(message);
    if (fetch_.handle(message)) return;
    switch (envelope.kind) {
      case MessageKind::kRetuneAddReplica:
        on_add(envelope.seq, unseal<AddReplica>(envelope));
        break;
      case MessageKind::kRetuneDropReplica:
        on_drop(envelope.seq);
        break;
      case MessageKind::kRetuneStatsAck:
        stats_acked_ = true;
        channel_.close_if([](const Report&) { return true; });
        break;
      default:
        throw std::logic_error("SiteEndpoint: unexpected message kind " +
                               std::string(kind_name(envelope.kind)));
    }
  }

  void on_crash() override {
    // In-flight migration state is volatile; completed directives (the
    // replica is on disk) survive.
    migrating_.clear();
    fetch_.on_crash();
  }

  void on_recover() override {
    // A late report in its own exchange; the monitor dedups.
    if (!stats_acked_) (void)channel_.open({});
  }

 private:
  std::size_t transmit(ExchangeKey /*key*/, std::size_t /*attempt*/) override {
    network_->send(self_, monitor_site_, 0.0,
                   seal(MessageKind::kRetuneStatsReport, 0));
    return 1;
  }

  /// A report's give-up leaves the rest to the monitor's deadline.
  void give_up(ExchangeKey key) override { channel_.close(key); }

  void on_add(std::uint64_t id, const AddReplica& add) {
    if (completed_.count(id) != 0) {
      ++channel_.stats().duplicates;  // already migrated; the ack was lost
      network_->send(self_, monitor_site_, 0.0,
                     seal(MessageKind::kRetuneAck, id));
      return;
    }
    // The rollout can direct several additions at one site back-to-back, so
    // migrations run concurrently, tagged with their directive's id.
    if (!migrating_.insert(id).second) {
      ++channel_.stats().duplicates;  // this migration is still in flight
      return;
    }
    fetch_.fetch(add.object, add.fetch_from, id);
  }

  void fetched(std::uint64_t id, bool arrived) override {
    migrating_.erase(id);
    // An abandoned migration restarts when the monitor retries its
    // directive.
    if (!arrived) return;
    const bool first_completion = completed_.insert(id).second;
    // Audit (compiled out unless DREP_AUDIT=ON): a directive that completes
    // twice means on_add re-admitted an already-completed id — the
    // idempotence guard above it failed.
    DREP_AUDIT_BLOCK(
        if (!first_completion) {
          ::drep::audit::enforce(
              {{"retune.directive_idempotence",
                "directive " + std::to_string(id) +
                    " completed a second time at site " +
                    std::to_string(self_)}},
              "monitor/fetched");
        });
    (void)first_completion;
    network_->send(self_, monitor_site_, 0.0,
                   seal(MessageKind::kRetuneAck, id));
  }

  void on_drop(std::uint64_t id) {
    // Local deallocation is instantaneous and idempotent; always ack.
    if (!completed_.insert(id).second) ++channel_.stats().duplicates;
    network_->send(self_, monitor_site_, 0.0,
                   seal(MessageKind::kRetuneAck, id));
  }

  SiteId self_;
  SiteId monitor_site_;
  DesNetwork* network_;
  ReliableChannel<Report> channel_;
  FetchLeg fetch_;
  bool stats_acked_ = false;
  /// Ids of the directives whose fetch is in flight.
  std::set<std::uint64_t> migrating_;
  std::set<std::uint64_t> completed_;
};

/// One directive of the rollout, as the monitor's channel keeps it.
struct Directive {
  ObjectId object = 0;
  SiteId target = 0;  // the site it goes to
  SiteId holder = 0;  // AddReplica: fetch from here
  bool drop = false;  // kRetuneDropReplica instead of kRetuneAddReplica
};

/// The monitor-site endpoint: collects stats reports (with a give-up
/// deadline under faults), then disseminates the scheme delta and shepherds
/// every directive to an ack or a counted failure.
class MonitorEndpoint final : public Node,
                              private ChannelClient,
                              private FetchClient {
 public:
  using Trigger = std::function<void()>;

  MonitorEndpoint(SiteId self, const core::Problem& problem,
                  DesNetwork& network, const RetryPolicy& retry,
                  RetuneReport& report, Trigger trigger)
      : self_(self),
        network_(&network),
        report_(&report),
        channel_(network, self, retry, report.retry_stats, *this),
        fetch_(network, self, problem, retry, report.retry_stats, *this),
        reported_(problem.sites(), false),
        awaiting_reports_(problem.sites() - 1),
        trigger_(std::move(trigger)) {
    reported_[self_] = true;
  }

  void handle(const Message& message) override {
    const Envelope& envelope = open(message);
    if (fetch_.handle(message)) return;
    switch (envelope.kind) {
      case MessageKind::kRetuneStatsReport:
        on_report(message.from);
        break;
      case MessageKind::kRetuneAck:
        (void)channel_.settle(envelope.seq);
        break;
      default:
        throw std::logic_error("MonitorEndpoint: unexpected message kind " +
                               std::string(kind_name(envelope.kind)));
    }
  }

  /// Under faults, the round proceeds with whatever reports arrived by the
  /// channel's collection deadline.
  void arm_collection_deadline() {
    network_->queue().schedule_in(channel_.deadline(), [this] {
      if (triggered_) return;
      report_->reports_missing = awaiting_reports_;
      fire_trigger();
    });
  }

  /// Rolls out one scheme change at `target`: a replica gain fetches
  /// `object` from `holder` (directly when the target is the monitor's own
  /// site), a drop is a directive — the monitor drops its own locally.
  void roll_out(SiteId target, ObjectId object, SiteId holder, bool drop) {
    if (target != self_) {
      (void)channel_.open({object, target, holder, drop});
    } else if (!drop) {
      fetch_.fetch(object, holder, 0);
    }
  }

 private:
  std::size_t transmit(ExchangeKey key, std::size_t /*attempt*/) override {
    const Directive& directive = channel_[key];
    if (directive.drop) {
      network_->send(self_, directive.target, 0.0,
                     seal(MessageKind::kRetuneDropReplica, key,
                          directive.object));
    } else {
      network_->send(self_, directive.target, 0.0,
                     seal(MessageKind::kRetuneAddReplica, key,
                          AddReplica{directive.object, directive.holder}));
    }
    return 1;
  }

  /// The site presumably crashed and keeps its stale replica set. The
  /// exchange stays open: an ack that still arrives completes it.
  void give_up(ExchangeKey /*key*/) override { ++report_->directives_failed; }

  /// The monitor's own migration: a give-up leaves its stale replica set.
  void fetched(std::uint64_t /*tag*/, bool arrived) override {
    if (!arrived) ++report_->directives_failed;
  }

  void on_report(SiteId from) {
    if (reported_[from]) {
      ++report_->retry_stats.duplicates;
    } else {
      reported_[from] = true;
      if (awaiting_reports_ > 0) --awaiting_reports_;
      if (awaiting_reports_ == 0 && !triggered_) fire_trigger();
    }
    // Ack only when the sender runs a retry loop that needs stopping.
    if (channel_.armed()) {
      network_->send(self_, from, 0.0, seal(MessageKind::kRetuneStatsAck, 0));
    }
  }

  void fire_trigger() {
    triggered_ = true;
    trigger_();
  }

  SiteId self_;
  DesNetwork* network_;
  RetuneReport* report_;
  ReliableChannel<Directive> channel_;
  FetchLeg fetch_;
  std::vector<bool> reported_;
  std::size_t awaiting_reports_;
  bool triggered_ = false;
  Trigger trigger_;
};

}  // namespace

RetuneReport run_retune_round(const core::Problem& observed, Monitor& monitor,
                              net::SiteId monitor_site, bool nightly,
                              util::Rng& rng, double latency_per_cost) {
  RetuneOptions options;
  options.monitor_site = monitor_site;
  options.nightly = nightly;
  options.latency_per_cost = latency_per_cost;
  return run_retune_round(observed, monitor, options, rng);
}

RetuneReport run_retune_round(const core::Problem& observed, Monitor& monitor,
                              const RetuneOptions& options, util::Rng& rng) {
  const std::size_t m = observed.sites();
  const net::SiteId monitor_site = options.monitor_site;
  if (monitor_site >= m)
    throw std::invalid_argument("run_retune_round: monitor site out of range");

  DesNetwork network(observed.costs(), options.latency_per_cost);
  RetuneReport report;
  if (options.faults) {
    if (std::any_of(options.faults->crashes.begin(),
                    options.faults->crashes.end(),
                    [&](const CrashWindow& w) {
                      return w.site == monitor_site;
                    })) {
      throw std::invalid_argument(
          "run_retune_round: the fault plan crashes the monitor site");
    }
    network.set_faults(*options.faults);
  }
  const core::ReplicationScheme before(observed, monitor.current_scheme());

  // The optimization itself runs when the last stats report lands (or the
  // collection deadline expires under faults).
  const auto optimize = [&] {
    if (options.nightly) {
      monitor.reoptimize(observed, rng);
      report.objects_adapted = observed.objects();
    } else {
      report.objects_adapted = monitor.adapt(observed, rng).size();
    }
  };

  std::vector<std::unique_ptr<Node>> nodes(m);
  MonitorEndpoint* monitor_node = nullptr;
  {
    auto owned = std::make_unique<MonitorEndpoint>(
        monitor_site, observed, network, options.retry, report, [&] {
      optimize();
      // Disseminate the delta: additions fetch from the nearest previous
      // holder, deallocations are dropped locally.
      const core::ReplicationScheme after(observed, monitor.current_scheme());
      for (ObjectId k = 0; k < observed.objects(); ++k) {
        for (SiteId i = 0; i < m; ++i) {
          const bool was = before.has_replica(i, k);
          const bool is = after.has_replica(i, k);
          if (was == is) continue;
          ++(is ? report.replicas_added : report.replicas_dropped);
          monitor_node->roll_out(i, k, before.nearest(i, k), !is);
        }
      }
      report.migration_traffic = core::migration_cost(before, after);
    });
    monitor_node = owned.get();
    nodes[monitor_site] = std::move(owned);
  }
  std::vector<SiteEndpoint*> sites(m, nullptr);
  for (SiteId i = 0; i < m; ++i) {
    if (i != monitor_site) {
      auto owned = std::make_unique<SiteEndpoint>(
          i, monitor_site, observed, network, options.retry,
          report.retry_stats);
      sites[i] = owned.get();
      nodes[i] = std::move(owned);
    }
    network.attach(i, *nodes[i]);
  }

  // Kick off: every site ships its observed pattern to the monitor. Under
  // faults the monitor also arms a collection deadline so crashed or
  // unreachable sites cannot stall the round forever.
  for (SiteId i = 0; i < m; ++i) {
    if (i != monitor_site) sites[i]->start_report();
  }
  if (network.faults_armed() && m > 1) monitor_node->arm_collection_deadline();
  if (m == 1) optimize();  // degenerate single-site network
  network.run();

  DREP_COUNT("drep_retune_protocol_retries_total", report.retry_stats.retries);
  DREP_COUNT("drep_retune_protocol_timeouts_total",
             report.retry_stats.timeouts);
  DREP_COUNT("drep_retune_reports_missing_total", report.reports_missing);
  DREP_COUNT("drep_retune_directives_failed_total", report.directives_failed);

  report.traffic = network.stats();
  report.round_time = network.queue().now();
  // Audit (compiled out unless DREP_AUDIT=ON): on a fault-free network the
  // rollout is exactly-once, so the measured fetch traffic must equal the
  // analytic migration NTC and every retry/failure counter must be zero.
  if (!options.faults) {
    DREP_AUDIT_ENFORCE(
        "monitor/retune_round",
        ::drep::audit::check_perfect_retune(
            {.data_traffic = report.traffic.data_traffic,
             .migration_traffic = report.migration_traffic,
             .retries = report.retry_stats.retries,
             .timeouts = report.retry_stats.timeouts,
             .give_ups = report.retry_stats.give_ups,
             .duplicates = report.retry_stats.duplicates,
             .reports_missing = report.reports_missing,
             .directives_failed = report.directives_failed}));
  }
  return report;
}

}  // namespace drep::sim
