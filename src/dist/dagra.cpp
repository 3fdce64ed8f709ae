#include "dist/dagra.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algo/gra.hpp"
#include "algo/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/envelope.hpp"
#include "sim/fetch_leg.hpp"
#include "sim/monitor.hpp"
#include "sim/reliable_channel.hpp"
#include "util/timer.hpp"
#include "workload/trace.hpp"

namespace drep::dist {

namespace {

using sim::Envelope;
using sim::MessageKind;

/// Site `site`'s local view: the baseline problem with that site's own row
/// replaced by the observed one — everything a site can see by itself.
core::Problem local_view(const core::Problem& baseline,
                         const core::Problem& observed, core::SiteId site) {
  std::vector<double> sizes(baseline.objects());
  std::vector<core::SiteId> primaries(baseline.objects());
  std::vector<double> capacities(baseline.sites());
  for (core::ObjectId k = 0; k < baseline.objects(); ++k) {
    sizes[k] = baseline.object_size(k);
    primaries[k] = baseline.primary(k);
  }
  for (core::SiteId i = 0; i < baseline.sites(); ++i)
    capacities[i] = baseline.capacity(i);
  core::Problem view(baseline.costs(), std::move(sizes), std::move(primaries),
                     std::move(capacities));
  for (core::SiteId i = 0; i < baseline.sites(); ++i) {
    const core::Problem& source = i == site ? observed : baseline;
    for (core::ObjectId k = 0; k < baseline.objects(); ++k) {
      view.set_reads(i, k, source.reads(i, k));
      view.set_writes(i, k, source.writes(i, k));
    }
  }
  return view;
}

// --- wire payloads --------------------------------------------------------

/// A retuned column; its retuner is the message's sender. A column ack
/// carries nothing but the update's seq.
struct ColumnUpdate {
  core::ObjectId object = 0;
  /// The retuned M-bit replica column of `object` (bit i = site i hosts).
  std::vector<std::uint8_t> column;
};

struct SharedState {
  sim::RetryStats retry_stats;
  std::size_t updates_sent = 0;
  std::size_t updates_applied = 0;
  std::size_t updates_ignored = 0;
  std::size_t directives_failed = 0;
  std::vector<std::vector<audit::EnvelopeRecord>> logs;
};

/// One site of the decentralized adaptive round: drift receiver for every
/// site, plus the retuner role at sites whose EWMA trigger fired.
class DriftNode final : public sim::Node,
                        private sim::ChannelClient,
                        private sim::FetchClient {
 public:
  DriftNode(core::SiteId self, const core::Problem& observed,
            const core::ReplicationScheme& before, const DadaptOptions& options,
            sim::DesNetwork& network, SharedState& shared)
      : self_(self),
        observed_(observed),
        before_(before),
        options_(options),
        network_(network),
        shared_(shared),
        channel_(network, self, options.retry, shared.retry_stats, *this),
        fetch_(network, self, observed, options.retry, shared.retry_stats,
               *this) {
    const std::size_t objects = observed.objects();
    bits_.resize(objects);
    for (core::ObjectId k = 0; k < objects; ++k)
      bits_[k] = options.current_scheme[self * objects + k];
    winner_.assign(objects, kNoRetuner);
    gained_.assign(objects, 0);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bits() const noexcept {
    return bits_;
  }
  [[nodiscard]] bool gained(core::ObjectId k) const { return gained_[k] != 0; }

  /// Arms the retuner role: at t=0 this site runs its micro-AGRA over its
  /// local view and disseminates the changed columns.
  void arm_retuner(core::Problem local_problem,
                   std::vector<core::ObjectId> changed) {
    local_problem_ = std::move(local_problem);
    changed_ = std::move(changed);
    network_.queue().schedule(0.0, [this] { run_retune(); });
  }

  void handle(const sim::Message& message) override {
    const Envelope& envelope = sim::open(message);
    if (fetch_.handle(message)) return;
    switch (envelope.kind) {
      case MessageKind::kDriftColumnUpdate:
        on_update(message);
        return;
      case MessageKind::kDriftColumnAck:
        if (channel_.accept(message)) {
          record(message);
          on_ack(message.from, envelope.seq);
        } else {
          ++shared_.retry_stats.duplicates;
        }
        return;
      default:
        throw std::logic_error("DriftNode: unexpected message kind " +
                               std::string(sim::kind_name(envelope.kind)));
    }
  }

  void on_crash() override {
    // Volatile in-flight fetches are lost; committed replica bits and the
    // retuner's lanes survive.
    fetch_.on_crash();
  }

  void on_recover() override {
    // Retuner role: re-announce the current unacked update on every lane.
    for (const auto& [dest, lane] : outbox_) {
      if (channel_.find(lane.key) != nullptr) channel_.restart(lane.key);
    }
  }

 private:
  static constexpr core::SiteId kNoRetuner =
      std::numeric_limits<core::SiteId>::max();

  struct Lane {
    std::vector<ColumnUpdate> queue;
    /// Envelope seq of queue[p] is base_seq + p.
    std::uint64_t base_seq = 1;
    std::size_t next = 0;
    /// The exchange carrying queue[next] (faults armed only).
    sim::ExchangeKey key = 0;
  };
  /// A received replica gain waiting for its object.
  struct Gain {
    core::ObjectId object = 0;
    core::SiteId retuner = 0;
    std::uint64_t update_seq = 0;
  };

  // --- retuner role -------------------------------------------------------

  void run_retune() {
    if (!network_.site_up(self_)) return;  // crashed before retuning: skip
    DREP_SPAN("dist/retune");
    // The redesigned registry path, driven per-DES-node: the same "agra"
    // adapter the central monitor uses, scoped to this site's local view.
    algo::SolverOptions solver_options;
    solver_options.agra = options_.agra;
    solver_options.common = options_.agra.common;
    solver_options.common.seed = options_.seed;
    algo::SolveRequest request{*local_problem_, std::move(solver_options)};
    request.adapt = algo::AdaptContext{&options_.current_scheme,
                                       options_.retained_population, changed_};
    request.context.locality = self_;
    request.context.clock = [this] { return network_.queue().now(); };
    const algo::SolveResponse response =
        algo::solver_registry().at("agra").solve(request);
    const ga::Chromosome& genes = response.result.scheme.matrix();

    // One lane per destination (self included — a self-send delivers
    // immediately), stop-and-wait per lane when faults are armed.
    const std::size_t sites = observed_.sites();
    const std::size_t objects = observed_.objects();
    for (core::SiteId dest = 0; dest < sites; ++dest) {
      Lane lane;
      lane.base_seq = next_seq_;
      for (const core::ObjectId k : changed_) {
        ColumnUpdate update;
        update.object = k;
        update.column.resize(sites);
        for (core::SiteId i = 0; i < sites; ++i)
          update.column[i] = genes[i * objects + k];
        lane.queue.push_back(std::move(update));
      }
      next_seq_ += lane.queue.size();
      outbox_.emplace(dest, std::move(lane));
    }
    for (auto& [dest, lane] : outbox_) {
      if (lane.queue.empty()) continue;
      if (channel_.armed()) {
        ++shared_.updates_sent;
        lane.key = channel_.open(dest);
      } else {
        // Perfect network: delivery is guaranteed and in-order per lane —
        // blast the whole queue, no acks, no timers.
        for (; lane.next < lane.queue.size(); ++lane.next) {
          transmit_update(dest, lane);
          ++shared_.updates_sent;
        }
      }
    }
  }

  void transmit_update(core::SiteId dest, const Lane& lane) {
    const ColumnUpdate& update = lane.queue[lane.next];
    network_.send(self_, dest, 0.0,
                  sim::seal(MessageKind::kDriftColumnUpdate,
                            lane.base_seq + lane.next, update));
  }

  void on_ack(core::SiteId dest, std::uint64_t seq) {
    const auto it = outbox_.find(dest);
    if (it == outbox_.end()) return;
    Lane& lane = it->second;
    if (lane.next >= lane.queue.size()) return;
    if (lane.base_seq + lane.next != seq) return;  // stale ack
    advance_lane(dest);
  }

  void advance_lane(core::SiteId dest) {
    Lane& lane = outbox_[dest];
    channel_.close(lane.key);
    ++lane.next;
    if (lane.next < lane.queue.size()) {
      ++shared_.updates_sent;
      lane.key = channel_.open(dest);
    }
  }

  // --- channel hooks ------------------------------------------------------

  std::size_t transmit(sim::ExchangeKey key,
                       std::size_t /*attempt*/) override {
    const core::SiteId dest = channel_[key];
    transmit_update(dest, outbox_[dest]);
    return 1;
  }

  void give_up(sim::ExchangeKey key) override {
    advance_lane(channel_[key]);  // skip the lost update; seq gaps are legal
  }

  // --- receiver role ------------------------------------------------------

  void on_update(const sim::Message& message) {
    const Envelope& envelope = message.envelope;
    const auto& update = sim::unseal<ColumnUpdate>(envelope);
    const core::SiteId retuner = message.from;
    if (!channel_.accept(message)) {
      // Duplicate: our ack was lost — re-ack so the lane advances.
      ++shared_.retry_stats.duplicates;
      ack(retuner, envelope.seq);
      return;
    }
    record(message);
    const core::ObjectId k = update.object;
    // Concurrent-retuner conflicts resolve to the lowest site id no matter
    // the arrival order: a higher-id update never displaces a lower one,
    // and a lower-id update overrides a higher one already applied.
    if (winner_[k] != kNoRetuner && winner_[k] < retuner) {
      ++shared_.updates_ignored;
      ack(retuner, envelope.seq);
      return;
    }
    winner_[k] = retuner;
    const std::uint8_t desired = update.column[self_];
    if (desired == bits_[k]) {
      ++shared_.updates_applied;
      ack(retuner, envelope.seq);
      return;
    }
    if (desired == 0) {
      // Drop — but never the primary copy (a valid retune never asks).
      if (observed_.primary(k) != self_) {
        bits_[k] = 0;
        gained_[k] = 0;
      }
      ++shared_.updates_applied;
      ack(retuner, envelope.seq);
      return;
    }
    // Gain: fetch the object from the nearest *current* holder before the
    // replica (and the ack) commits.
    gains_.push_back({k, retuner, envelope.seq});
    fetch_.fetch(k, before_.nearest(self_, k), gains_.size() - 1);
  }

  void fetched(std::uint64_t tag, bool arrived) override {
    const Gain gain = gains_[tag];
    if (!arrived) {
      // The replica cannot be hosted without its data. Ack the directive
      // anyway (processed, not applied) so the lane advances.
      ++shared_.directives_failed;
    } else if (winner_[gain.object] != gain.retuner) {
      // A lower-id retuner overrode this object while the fetch was in
      // flight; its directive stands, but the loser still gets its ack.
      ++shared_.updates_ignored;
    } else {
      bits_[gain.object] = 1;
      gained_[gain.object] = 1;
      ++shared_.updates_applied;
    }
    ack(gain.retuner, gain.update_seq);
  }

  void ack(core::SiteId retuner, std::uint64_t update_seq) {
    if (!channel_.armed()) return;  // perfect network: no ack traffic
    network_.send(self_, retuner, 0.0,
                  sim::seal(MessageKind::kDriftColumnAck, update_seq));
  }

  void record(const sim::Message& message) {
    shared_.logs[self_].push_back(
        {static_cast<std::size_t>(message.from),
         static_cast<std::uint16_t>(message.envelope.kind),
         message.envelope.seq});
  }

  core::SiteId self_;
  const core::Problem& observed_;
  const core::ReplicationScheme& before_;
  const DadaptOptions& options_;
  sim::DesNetwork& network_;
  SharedState& shared_;
  /// One exchange per outgoing lane: the cargo is the lane's destination.
  sim::ReliableChannel<core::SiteId> channel_;
  sim::FetchLeg fetch_;

  std::vector<std::uint8_t> bits_;     // own replica row (N)
  std::vector<core::SiteId> winner_;   // per object: applied retuner id
  std::vector<std::uint8_t> gained_;   // gains applied this round
  std::optional<core::Problem> local_problem_{};
  std::vector<core::ObjectId> changed_;
  std::map<core::SiteId, Lane> outbox_;
  std::vector<Gain> gains_;  // indexed by fetch tag
  std::uint64_t next_seq_ = 1;
};

}  // namespace

void DadaptOptions::validate() const {
  agra.validate();
  predictor.validate();
  if (!(drift_threshold_percent >= 0.0))
    throw std::invalid_argument(
        "DadaptOptions: drift_threshold_percent must be >= 0");
  if (!(change_threshold_percent >= 0.0))
    throw std::invalid_argument(
        "DadaptOptions: change_threshold_percent must be >= 0");
  if (!(latency_per_cost > 0.0))
    throw std::invalid_argument("DadaptOptions: latency_per_cost must be > 0");
  if (faults.has_value()) faults->validate();
}

DadaptResult run_decentralized_adapt(const core::Problem& baseline,
                                     const core::Problem& observed,
                                     const DadaptOptions& options) {
  DREP_SPAN("dist/dagra");
  options.validate();
  const std::size_t sites = baseline.sites();
  const std::size_t objects = baseline.objects();
  if (observed.sites() != sites || observed.objects() != objects)
    throw std::invalid_argument(
        "run_decentralized_adapt: baseline/observed shape mismatch");
  if (options.current_scheme.size() != sites * objects)
    throw std::invalid_argument(
        "run_decentralized_adapt: current_scheme length != sites×objects");
  util::Stopwatch watch;

  // --- phase 1: offline per-site drift detection -------------------------
  // Each site folds its own subsequence of the observed trace through its
  // EWMA predictor, then compares the per-object rates against the
  // baseline per-window expectation — everything locally observable.
  util::Rng trace_rng(options.trace_seed);
  const std::vector<workload::Request> trace =
      workload::build_trace(observed, trace_rng);
  std::vector<online::Predictor> predictors;
  predictors.reserve(sites);
  for (core::SiteId i = 0; i < sites; ++i)
    predictors.emplace_back(options.predictor, objects);
  for (const workload::Request& request : trace)
    (void)predictors[request.site].observe(request);

  std::vector<core::SiteId> drifted_sites;
  for (core::SiteId i = 0; i < sites; ++i) {
    double row_total = 0.0;
    for (core::ObjectId k = 0; k < objects; ++k)
      row_total += baseline.reads(i, k) + baseline.writes(i, k);
    if (row_total <= 0.0) continue;
    const double window = static_cast<double>(options.predictor.window);
    bool drifted = false;
    for (core::ObjectId k = 0; k < objects && !drifted; ++k) {
      const double expected =
          window * (baseline.reads(i, k) + baseline.writes(i, k)) / row_total;
      drifted = sim::deviation_percent(expected, predictors[i].rate(k)) >=
                options.drift_threshold_percent;
    }
    if (drifted) drifted_sites.push_back(i);
  }

  // --- phase 2: the DES dissemination round ------------------------------
  sim::DesNetwork network(baseline.costs(), options.latency_per_cost);
  if (options.faults.has_value()) network.set_faults(*options.faults);
  const core::ReplicationScheme before(baseline, options.current_scheme);

  SharedState shared;
  shared.logs.resize(sites);
  std::vector<std::unique_ptr<DriftNode>> nodes;
  nodes.reserve(sites);
  for (core::SiteId i = 0; i < sites; ++i) {
    nodes.push_back(std::make_unique<DriftNode>(i, observed, before, options,
                                                network, shared));
    network.attach(i, *nodes[i]);
  }

  // Each retuner applies the central monitor's changed-object rule to its
  // local view.
  std::vector<double> baseline_reads(objects);
  std::vector<double> baseline_writes(objects);
  for (core::ObjectId k = 0; k < objects; ++k) {
    baseline_reads[k] = baseline.total_reads(k);
    baseline_writes[k] = baseline.total_writes(k);
  }
  std::vector<std::uint8_t> changed_union(objects, 0);
  std::size_t retunes_run = 0;
  for (const core::SiteId site : drifted_sites) {
    core::Problem view = local_view(baseline, observed, site);
    std::vector<core::ObjectId> changed =
        sim::changed_objects(baseline_reads, baseline_writes, view,
                             options.change_threshold_percent);
    if (changed.empty()) continue;
    for (const core::ObjectId k : changed) changed_union[k] = 1;
    ++retunes_run;
    nodes[site]->arm_retuner(std::move(view), std::move(changed));
  }
  std::vector<core::ObjectId> changed_objects;
  for (core::ObjectId k = 0; k < objects; ++k)
    if (changed_union[k] != 0) changed_objects.push_back(k);

  network.run();

  // --- assembly: per-site actual bits + capacity repair ------------------
  ga::Chromosome genes(sites * objects);
  for (core::SiteId i = 0; i < sites; ++i) {
    const std::vector<std::uint8_t>& row = nodes[i]->bits();
    for (core::ObjectId k = 0; k < objects; ++k) genes[i * objects + k] = row[k];
  }
  std::vector<double> loads = algo::chromosome_loads(observed, genes);
  std::size_t directives_rejected = 0;
  for (core::SiteId i = 0; i < sites; ++i) {
    if (loads[i] <= observed.capacity(i)) continue;
    // Evict accepted gains, descending object id, until the site fits —
    // the assembly-time repair that replaces an apply-time capacity veto.
    for (core::ObjectId k = static_cast<core::ObjectId>(objects);
         k-- > 0 && loads[i] > observed.capacity(i);) {
      if (genes[i * objects + k] == 0 || !nodes[i]->gained(k)) continue;
      if (observed.primary(k) == i) continue;
      genes[i * objects + k] = 0;
      loads[i] -= observed.object_size(k);
      ++directives_rejected;
    }
  }

  DadaptResult out{algo::make_result(core::ReplicationScheme(observed, genes),
                                     watch.seconds())};
  out.result.iterations = changed_objects.size();
  out.drifted_sites = std::move(drifted_sites);
  out.changed_objects = std::move(changed_objects);
  out.retunes_run = retunes_run;
  out.directives_rejected = directives_rejected;
  out.updates_sent = shared.updates_sent;
  out.updates_applied = shared.updates_applied;
  out.updates_ignored = shared.updates_ignored;
  out.directives_failed = shared.directives_failed;
  out.traffic = network.stats();
  out.retry_stats = shared.retry_stats;
  out.round_time = network.queue().now();
  out.envelope_logs = std::move(shared.logs);
  return out;
}

}  // namespace drep::dist
