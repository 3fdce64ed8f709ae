#include "sim/access_replay.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/envelope.hpp"
#include "sim/reliable_channel.hpp"

namespace drep::sim {

namespace {

using core::ObjectId;

// Every kReplay* message but the two acks carries the bare ObjectId. The
// envelope seq is 0 on a perfect network (no retries, nothing to correlate)
// and the sender's ExchangeKey under a fault plan, echoed by the reply.

/// One exchange of the fault path, as the channel keeps it.
struct Pending {
  enum class Kind : std::uint8_t { kRead, kShip, kLeg };
  Kind kind = Kind::kRead;
  ObjectId object = 0;
  SiteId target = 0;       // update legs
  double issued_at = 0.0;  // reads
};

/// One protocol endpoint per site. All sites share the scheme (the paper's
/// two-field (SP_k, SN_k) record per object is exactly what
/// ReplicationScheme::nearest/primary provide).
class ReplicaNode final : public Node, private ChannelClient {
 public:
  ReplicaNode(SiteId self, const core::ReplicationScheme& scheme,
              DesNetwork& network, const RetryPolicy& retry,
              ReplayResult& result, double latency_per_cost)
      : self_(self),
        scheme_(&scheme),
        network_(&network),
        result_(&result),
        latency_per_cost_(latency_per_cost),
        channel_(network, self, retry, result.retry_stats, *this) {}

  /// Without a plan a remote read is charged its analytic round trip and
  /// fired off; with one, it is an exchange routed to a live replica.
  void issue(const workload::Request& request) {
    DREP_COUNT("drep_replay_requests_total", 1);
    ReplayResult& result = *result_;
    const core::Problem& problem = scheme_->problem();
    const bool armed = channel_.armed();
    if (armed && !network_->site_up(self_)) {
      // A crashed site serves nobody.
      ++(request.is_write ? result.failed_writes : result.failed_reads);
      DREP_COUNT("drep_replay_failed_requests_total", 1);
      return;
    }
    if (!request.is_write) {
      const SiteId nearest = scheme_->nearest(self_, request.object);
      if (nearest == self_) {
        ++result.local_reads;  // served locally, no traffic
        result.read_latency.add(0.0);
        DREP_COUNT("drep_replay_local_reads_total", 1);
        DREP_OBSERVE("drep_replay_read_latency", obs::latency_buckets(), 0.0);
        return;
      }
      if (armed) {
        issue_faulty_read(request.object, nearest);
        return;
      }
      ++result.remote_reads;
      // Response time: request there, object back (no queueing modelled).
      const double latency =
          2.0 * latency_per_cost_ * problem.cost(self_, nearest);
      result.read_latency.add(latency);
      DREP_COUNT("drep_replay_remote_reads_total", 1);
      DREP_OBSERVE("drep_replay_read_latency", obs::latency_buckets(),
                   latency);
      network_->send(self_, nearest, 0.0,
                     seal(MessageKind::kReplayRead, 0, request.object));
      return;
    }
    ++result.writes;
    DREP_COUNT("drep_replay_writes_total", 1);
    const SiteId primary = problem.primary(request.object);
    if (primary == self_) {
      record_write_latency(request.object, primary);
      broadcast(request.object, /*writer=*/self_);
      return;
    }
    if (armed && !network_->site_up(primary)) {
      ++result.failed_writes;  // nowhere to commit the new version
      DREP_COUNT("drep_replay_failed_requests_total", 1);
      return;
    }
    record_write_latency(request.object, primary);
    if (armed)
      (void)channel_.open({Pending::Kind::kShip, request.object, 0, 0.0});
    else
      network_->send(self_, primary, problem.object_size(request.object),
                     seal(MessageKind::kReplayWriteShip, 0, request.object));
  }

  void handle(const Message& message) override {
    const Envelope& envelope = open(message);
    switch (envelope.kind) {
      case MessageKind::kReplayRead: {
        const auto object = unseal<ObjectId>(envelope);
        network_->send(
            self_, message.from, scheme_->problem().object_size(object),
            seal(MessageKind::kReplayReadResponse, envelope.seq, object));
        break;
      }
      case MessageKind::kReplayReadResponse:
        if (channel_.armed()) on_read_response(envelope.seq);
        break;
      case MessageKind::kReplayWriteShip:
        on_write_ship(message);
        break;
      case MessageKind::kReplayWriteAck:
      case MessageKind::kReplayUpdateAck:
        (void)channel_.settle(envelope.seq);
        break;
      case MessageKind::kReplayUpdate:
        // Applying the same version twice is idempotent; just ack.
        if (channel_.armed()) {
          network_->send(self_, message.from, 0.0,
                         seal(MessageKind::kReplayUpdateAck, envelope.seq));
        }
        break;
      case MessageKind::kReplayMigration:
        break;  // a replica-creation shipment: pure data transfer
      default:
        throw std::logic_error("ReplicaNode: unexpected message kind " +
                               std::string(kind_name(envelope.kind)));
    }
  }

  /// A crash loses every in-flight exchange at this site: pending reads and
  /// write shipments fail, un-acked broadcast legs leave replicas stale.
  void on_crash() override {
    channel_.close_if([this](const Pending& pending) {
      ++lost_count(pending.kind);
      return true;
    });
  }

 private:
  [[nodiscard]] std::size_t& lost_count(Pending::Kind kind) noexcept {
    switch (kind) {
      case Pending::Kind::kRead: return result_->failed_reads;
      case Pending::Kind::kShip: return result_->failed_writes;
      case Pending::Kind::kLeg: break;
    }
    return result_->stale_replica_updates;
  }

  /// Visibility latency: ship to the primary plus the slowest broadcast
  /// leg. Stays the analytic bound even under faults (a measured value
  /// would conflate retransmission delay with service time).
  void record_write_latency(ObjectId object, SiteId primary) {
    const core::Problem& problem = scheme_->problem();
    double slowest_leg = 0.0;
    for (const SiteId replicator : scheme_->replicas(object)) {
      if (replicator == primary || replicator == self_) continue;
      slowest_leg = std::max(slowest_leg, problem.cost(primary, replicator));
    }
    const double write_latency =
        latency_per_cost_ * (problem.cost(self_, primary) + slowest_leg);
    result_->write_latency.add(write_latency);
    DREP_OBSERVE("drep_replay_write_latency", obs::latency_buckets(),
                 write_latency);
  }

  void issue_faulty_read(ObjectId object, SiteId nearest) {
    ReplayResult& result = *result_;
    const std::optional<SiteId> target = live_read_target(object);
    if (!target) {
      ++result.failed_reads;  // every replicator is down
      DREP_COUNT("drep_replay_failed_requests_total", 1);
      return;
    }
    if (*target != nearest) {
      ++result.degraded_reads;
      DREP_COUNT("drep_replay_degraded_reads_total", 1);
    }
    ++result.remote_reads;
    DREP_COUNT("drep_replay_remote_reads_total", 1);
    (void)channel_.open(
        {Pending::Kind::kRead, object, 0, network_->queue().now()});
  }

  /// Nearest replicator when alive, else the cheapest live replica (ties to
  /// the lowest site id; the primary is always among the candidates).
  [[nodiscard]] std::optional<SiteId> live_read_target(ObjectId object) const {
    const SiteId nearest = scheme_->nearest(self_, object);
    if (network_->site_up(nearest)) return nearest;
    const core::Problem& problem = scheme_->problem();
    std::optional<SiteId> best;
    double best_cost = 0.0;
    for (const SiteId replicator : scheme_->replicas(object)) {
      if (!network_->site_up(replicator)) continue;
      const double cost = problem.cost(self_, replicator);
      if (!best || cost < best_cost ||
          (cost == best_cost && replicator < *best)) {
        best = replicator;
        best_cost = cost;
      }
    }
    return best;
  }

  std::size_t transmit(ExchangeKey key, std::size_t /*attempt*/) override {
    const Pending& pending = channel_[key];
    const core::Problem& problem = scheme_->problem();
    switch (pending.kind) {
      case Pending::Kind::kRead:
        // Re-pick the target every attempt: the previous one may have
        // crashed (or recovered) since. The attempt counts as a retry even
        // when no live replica can take it.
        if (const std::optional<SiteId> target =
                live_read_target(pending.object)) {
          network_->send(self_, *target, 0.0,
                         seal(MessageKind::kReplayRead, key, pending.object));
        }
        break;
      case Pending::Kind::kShip:
        network_->send(
            self_, problem.primary(pending.object),
            problem.object_size(pending.object),
            seal(MessageKind::kReplayWriteShip, key, pending.object));
        break;
      case Pending::Kind::kLeg:
        network_->send(self_, pending.target,
                       problem.object_size(pending.object),
                       seal(MessageKind::kReplayUpdate, key, pending.object));
        break;
    }
    return 1;
  }

  void give_up(ExchangeKey key) override {
    const Pending::Kind kind = channel_[key].kind;
    ++lost_count(kind);
    if (kind == Pending::Kind::kLeg)
      DREP_COUNT("drep_replay_stale_updates_total", 1);
    else
      DREP_COUNT("drep_replay_failed_requests_total", 1);
    channel_.close(key);
  }

  void on_read_response(ExchangeKey key) {
    const Pending* read = channel_.find(key);
    if (read == nullptr) {
      ++result_->retry_stats.duplicates;
      return;
    }
    // Measured response time; equals the analytic 2·λ·C round trip when the
    // first attempt got through un-spiked.
    const double latency = network_->queue().now() - read->issued_at;
    result_->read_latency.add(latency);
    DREP_OBSERVE("drep_replay_read_latency", obs::latency_buckets(), latency);
    channel_.close(key);
  }

  void on_write_ship(const Message& ship) {
    const auto object = unseal<ObjectId>(ship.envelope);
    if (!channel_.armed()) {
      broadcast(object, ship.from);
      return;
    }
    // The primary deduplicates replayed shipments: the version already
    // committed and fanned out, only the ack was lost. Shipments are the
    // replay's only deduplicated message.
    if (channel_.accept(ship))
      broadcast(object, ship.from);
    else
      ++result_->retry_stats.duplicates;
    network_->send(self_, ship.from, 0.0,
                   seal(MessageKind::kReplayWriteAck, ship.envelope.seq));
  }

  /// Primary-side fan-out of an update to every other replicator, excluding
  /// the writer (which already holds the new version). Under faults every
  /// leg is shepherded to an ack or counted as a stale replica.
  void broadcast(ObjectId object, SiteId writer) {
    const core::Problem& problem = scheme_->problem();
    for (const SiteId replicator : scheme_->replicas(object)) {
      if (replicator == self_ || replicator == writer) continue;
      if (!channel_.armed()) {
        network_->send(self_, replicator, problem.object_size(object),
                       seal(MessageKind::kReplayUpdate, 0, object));
        continue;
      }
      (void)channel_.open({Pending::Kind::kLeg, object, replicator, 0.0});
    }
  }

  SiteId self_;
  const core::ReplicationScheme* scheme_;
  DesNetwork* network_;
  ReplayResult* result_;
  double latency_per_cost_;
  ReliableChannel<Pending> channel_;
};

/// The shared body of replay_trace and replay_trace_online. With a policy,
/// each request first runs it against `online` (the same object as
/// `scheme`) at injection time, before the request reaches its node — so
/// the node already sees the post-decision scheme (the ReplayPolicy
/// contract in the header).
ReplayResult run_replay(const core::ReplicationScheme& scheme,
                        std::span<const workload::Request> trace,
                        const ReplayOptions& options,
                        core::ReplicationScheme* online,
                        ReplayPolicy* policy) {
  const core::Problem& problem = scheme.problem();
  DesNetwork network(problem.costs(), options.latency_per_cost);
  if (options.faults) network.set_faults(*options.faults);

  ReplayResult result;
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  nodes.reserve(problem.sites());
  for (SiteId i = 0; i < problem.sites(); ++i) {
    nodes.push_back(std::make_unique<ReplicaNode>(
        i, scheme, network, options.retry, result, options.latency_per_cost));
    network.attach(i, *nodes.back());
  }

  const auto inject = [&](std::size_t idx) {
    const workload::Request& request = trace[idx];
    if (policy != nullptr) {
      for (const SchemeChange& change :
           policy->on_request(idx, request, *online)) {
        if (change.evict) {
          ++result.online_evictions;
          DREP_COUNT("drep_replay_online_evictions_total", 1);
          continue;
        }
        ++result.online_migrations;
        result.migration_traffic +=
            change.shipped_units * problem.cost(change.source, change.site);
        DREP_COUNT("drep_replay_online_migrations_total", 1);
        network.send(change.source, change.site, change.shipped_units,
                     seal(MessageKind::kReplayMigration, 0, change.object));
      }
    }
    nodes[request.site]->issue(request);
  };
  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    network.queue().schedule(options.inter_arrival * static_cast<double>(idx),
                             [&inject, idx] { inject(idx); });
  }
  network.run();
  result.traffic = network.stats();
  result.duration = network.queue().now();
  return result;
}

}  // namespace

ReplayResult replay_trace(const core::ReplicationScheme& scheme,
                          std::span<const workload::Request> trace,
                          const ReplayOptions& options) {
  DREP_SPAN("sim/replay");
  return run_replay(scheme, trace, options, nullptr, nullptr);
}

ReplayResult replay_trace_online(core::ReplicationScheme& scheme,
                                 std::span<const workload::Request> trace,
                                 const ReplayOptions& options,
                                 ReplayPolicy& policy) {
  DREP_SPAN("sim/replay_online");
  return run_replay(scheme, trace, options, &scheme, &policy);
}

}  // namespace drep::sim
