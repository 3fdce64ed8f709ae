#include "dist/dgra.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algo/gra_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/envelope.hpp"
#include "sim/reliable_channel.hpp"
#include "util/timer.hpp"

namespace drep::dist {

namespace {

using algo::GraEngine;
using sim::Envelope;
using sim::MessageKind;

/// The kGaElites wire payload: one island's fittest individuals for one
/// migration epoch, which is the envelope seq. A kGaElitesAck carries
/// nothing but the acked epoch's seq.
struct ElitesPayload {
  std::vector<GraEngine::EvalIndividual> elites;
};

/// The cargo of an island's open elites exchange.
struct Outgoing {
  std::size_t epoch = 0;
  std::vector<GraEngine::EvalIndividual> elites;
};

/// Driver-owned state every island appends to.
struct SharedCounters {
  sim::RetryStats retry_stats;
  std::size_t migrations_sent = 0;
  std::size_t migrations_applied = 0;
  std::size_t migrations_missed = 0;
  std::size_t elites_readmitted = 0;
  std::size_t islands_crashed = 0;
  std::vector<audit::EnvelopeRecord> envelope_log;
};

/// One island: a GraEngine advanced epoch-by-epoch from DES events. All
/// state the node mutates is its own (engine, buffers, timers); the only
/// cross-island effect is the elites message, which matches the
/// centralized driver's snapshot-then-exchange semantics.
class IslandNode final : public sim::Node, private sim::ChannelClient {
 public:
  IslandNode(sim::SiteId self, std::size_t islands, GraEngine& engine,
             const algo::GraConfig& config, const DgraOptions& options,
             sim::DesNetwork& network, SharedCounters& shared)
      : self_(self),
        islands_(islands),
        engine_(engine),
        generations_(config.generations),
        migration_interval_(config.migration_interval),
        migration_count_(config.migration_count),
        elite_size_units_(options.elite_size_units),
        network_(network),
        shared_(shared),
        channel_(network, self, options.retry, shared.retry_stats, *this) {}

  [[nodiscard]] std::size_t epochs_done() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t generations_done() const noexcept { return done_; }

  /// Advances one migration epoch; scheduled at t=0 by the driver and
  /// re-scheduled after each completed exchange.
  void run_epoch() {
    if (!network_.site_up(self_)) {
      stalled_ = true;  // on_recover resumes
      return;
    }
    const std::size_t step =
        std::min(migration_interval_, generations_ - done_);
    (void)engine_.advance(step);
    done_ += step;
    ++epoch_;
    DREP_COUNT("drep_dist_epochs_total", 1);
    if (done_ >= generations_ || migration_count_ == 0 || islands_ == 1) {
      if (done_ < generations_) schedule_next_epoch();
      return;
    }
    // Emigrant snapshot BEFORE this epoch's immigrants are admitted — the
    // centralized driver's simultaneous-exchange semantics.
    send_elites(epoch_, engine_.emigrants(migration_count_));
    await(epoch_);
  }

  void handle(const sim::Message& message) override {
    const Envelope& envelope = sim::open(message);
    switch (envelope.kind) {
      case MessageKind::kGaElites: {
        const auto& payload = sim::unseal<ElitesPayload>(envelope);
        // Ack every delivery (a duplicate means our previous ack was lost).
        if (network_.faults_armed()) {
          network_.send(self_, message.from, 0.0,
                        sim::seal(MessageKind::kGaElitesAck, envelope.seq));
        }
        if (!channel_.accept(message)) {
          ++shared_.retry_stats.duplicates;
          return;
        }
        record(message);
        on_elites(envelope.seq, payload);
        return;
      }
      case MessageKind::kGaElitesAck: {
        if (channel_.accept(message)) record(message);
        const Outgoing* outgoing = channel_.find(pending_);
        if (outgoing != nullptr && outgoing->epoch == envelope.seq)
          channel_.close(pending_);
        return;
      }
      default:
        throw std::logic_error("IslandNode: unexpected message kind " +
                               std::string(sim::kind_name(envelope.kind)));
    }
  }

  void on_crash() override {
    if (!ever_crashed_) {
      ever_crashed_ = true;
      ++shared_.islands_crashed;
    }
  }

  void on_recover() override {
    // Re-announce the last elites the successor never acked: the rejoin
    // path that re-admits a crashed island's genetic material (same seq,
    // so the successor dedups if an earlier transmission did land).
    if (channel_.find(pending_) != nullptr) channel_.restart(pending_);
    if (stalled_) {
      stalled_ = false;
      schedule_next_epoch();
    } else if (waiting_for_) {
      arm_deadline(*waiting_for_);
    }
  }

 private:
  void schedule_next_epoch() {
    network_.queue().schedule_in(0.0, [this] { run_epoch(); });
  }

  /// This epoch's elites supersede the last batch's exchange. Without a
  /// plan no ack arrives, so at most that one exchange stays open.
  void send_elites(std::size_t epoch,
                   std::vector<GraEngine::EvalIndividual> elites) {
    ++shared_.migrations_sent;
    channel_.close(pending_);
    pending_ = channel_.open({epoch, std::move(elites)});
  }

  std::size_t transmit(sim::ExchangeKey key, std::size_t /*attempt*/) override {
    const Outgoing& outgoing = channel_[key];
    const sim::SiteId successor =
        static_cast<sim::SiteId>((self_ + 1) % islands_);
    network_.send(
        self_, successor,
        static_cast<double>(outgoing.elites.size()) * elite_size_units_,
        sim::seal(MessageKind::kGaElites, outgoing.epoch,
                  ElitesPayload{outgoing.elites}));
    return 1;
  }

  /// A give-up leaves the exchange open: a late ack still settles it, and a
  /// recovering island resends it.
  void give_up(sim::ExchangeKey /*key*/) override {}

  void await(std::size_t epoch) {
    const auto buffered = buffer_.find(epoch);
    if (buffered != buffer_.end()) {
      std::vector<GraEngine::EvalIndividual> elites =
          std::move(buffered->second);
      buffer_.erase(buffered);
      apply(std::move(elites));
      proceed();
      return;
    }
    waiting_for_ = epoch;
    if (network_.faults_armed()) arm_deadline(epoch);
    // Perfect network: delivery is guaranteed, no deadline needed.
  }

  void arm_deadline(std::size_t epoch) {
    // Past the channel's deadline the predecessor gave up or is down.
    network_.queue().schedule_in(channel_.deadline(),
                                 [this, epoch] { on_deadline(epoch); });
  }

  void on_deadline(std::size_t epoch) {
    if (!waiting_for_ || *waiting_for_ != epoch) return;
    if (!network_.site_up(self_)) return;  // on_recover re-arms
    ++shared_.migrations_missed;
    DREP_COUNT("drep_dist_migrations_missed_total", 1);
    proceed();
  }

  void on_elites(std::size_t epoch, const ElitesPayload& payload) {
    if (waiting_for_ && *waiting_for_ == epoch) {
      apply(payload.elites);
      proceed();
    } else if (epoch > epoch_) {
      // The predecessor is ahead; hold until our epoch catches up.
      buffer_[epoch] = payload.elites;
    } else {
      // Late arrival (retransmission or rejoin resend) for an epoch we
      // proceeded past: the elites are still valid individuals — re-admit.
      engine_.immigrate(payload.elites);
      ++shared_.elites_readmitted;
      DREP_COUNT("drep_dist_elites_readmitted_total", 1);
    }
  }

  void apply(std::vector<GraEngine::EvalIndividual> elites) {
    engine_.immigrate(std::move(elites));
    ++shared_.migrations_applied;
  }

  void proceed() {
    waiting_for_.reset();
    if (done_ < generations_) schedule_next_epoch();
  }

  void record(const sim::Message& message) {
    shared_.envelope_log.push_back(
        {static_cast<std::size_t>(message.from),
         static_cast<std::uint16_t>(message.envelope.kind),
         message.envelope.seq});
  }

  sim::SiteId self_;
  std::size_t islands_;
  GraEngine& engine_;
  std::size_t generations_;
  std::size_t migration_interval_;
  std::size_t migration_count_;
  double elite_size_units_;
  sim::DesNetwork& network_;
  SharedCounters& shared_;
  sim::ReliableChannel<Outgoing> channel_;

  std::size_t done_ = 0;   // generations run
  std::size_t epoch_ = 0;  // completed epoch barriers
  std::optional<std::size_t> waiting_for_{};
  std::map<std::size_t, std::vector<GraEngine::EvalIndividual>> buffer_;
  sim::ExchangeKey pending_ = 0;  // the last elites sent, until acked
  bool stalled_ = false;
  bool ever_crashed_ = false;
};

}  // namespace

void DgraOptions::validate() const {
  gra.validate();
  if (!(latency_per_cost > 0.0))
    throw std::invalid_argument("DgraOptions: latency_per_cost must be > 0");
  if (!(elite_size_units > 0.0))
    throw std::invalid_argument("DgraOptions: elite_size_units must be > 0");
  if (faults.has_value()) faults->validate();
}

std::uint64_t chromosome_hash(const ga::Chromosome& genes) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const std::uint8_t gene : genes) {
    hash ^= gene;
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

DgraResult run_decentralized_gra(const core::Problem& problem,
                                 const DgraOptions& options, util::Rng& rng) {
  DREP_SPAN("dist/dgra");
  options.validate();
  const std::size_t k = options.gra.islands;
  if (k > problem.sites()) {
    throw std::invalid_argument(
        "run_decentralized_gra: more islands than sites (" +
        std::to_string(k) + " > " + std::to_string(problem.sites()) + ")");
  }
  util::Stopwatch watch;

  sim::DesNetwork network(problem.costs(), options.latency_per_cost);
  if (options.faults.has_value()) network.set_faults(*options.faults);

  // The exact RNG/config discipline of the centralized drivers: K == 1 is
  // solve_gra's direct path (caller's stream, config as-is); K > 1 is
  // solve_gra_islands' plan (fork children, then the parent steps once).
  std::vector<util::Rng> rngs;
  std::vector<algo::GraConfig> configs;
  if (k == 1) {
    configs.push_back(options.gra);
  } else {
    rngs = algo::fork_island_rngs(rng, k);
    configs = algo::island_plan_configs(options.gra);
  }

  // Seed + init in island order. Each island draws only from its own
  // stream, so this matches the centralized driver's per-island seeding
  // regardless of that driver's thread schedule.
  std::vector<std::unique_ptr<GraEngine>> engines;
  engines.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    util::Rng& island_rng = k == 1 ? rng : rngs[i];
    std::vector<ga::Chromosome> seed;
    {
      DREP_SPAN("gra/seed");
      seed = configs[i].init == algo::GraConfig::Init::kSraSeeded
                 ? algo::sra_seeded_population(problem, configs[i].population,
                                               configs[i].perturb_fraction,
                                               island_rng)
                 : algo::random_population(problem, configs[i].population,
                                           island_rng);
    }
    engines.push_back(
        std::make_unique<GraEngine>(problem, configs[i], island_rng));
    engines.back()->init(std::move(seed));
  }

  SharedCounters shared;
  std::vector<std::unique_ptr<IslandNode>> nodes;
  nodes.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    nodes.push_back(std::make_unique<IslandNode>(
        static_cast<sim::SiteId>(i), k, *engines[i], configs[i], options,
        network, shared));
    network.attach(static_cast<sim::SiteId>(i), *nodes[i]);
  }
  for (std::size_t i = 0; i < k; ++i) {
    IslandNode* node = nodes[i].get();
    network.queue().schedule(0.0, [node] { node->run_epoch(); });
  }
  network.run();

  // Merge exactly like the centralized island driver; islands a crash cut
  // short contribute partial state (shorter histories are max-merged over
  // their common prefix).
  std::vector<algo::GraResult> results;
  results.reserve(k);
  for (std::size_t i = 0; i < k; ++i) results.push_back(engines[i]->finish());
  std::size_t winner = 0;
  for (std::size_t i = 1; i < k; ++i) {
    if (results[i].best.cost < results[winner].best.cost) winner = i;
  }
  std::size_t done = 0;
  for (const auto& node : nodes) done = std::max(done, node->generations_done());

  algo::GraResult merged{std::move(results[winner].best),
                         {},
                         std::move(results[0].best_fitness_history),
                         0,
                         0.0};
  merged.best.elapsed_seconds = watch.seconds();
  merged.best.iterations = done;
  merged.population.reserve(options.gra.population);
  for (std::size_t i = 0; i < k; ++i) {
    algo::GraResult& r = results[i];
    merged.population.insert(merged.population.end(),
                             std::make_move_iterator(r.population.begin()),
                             std::make_move_iterator(r.population.end()));
    merged.evaluations += r.evaluations;
    merged.full_equivalent_evaluations += r.full_equivalent_evaluations;
    if (i > 0) {
      const std::size_t common = std::min(merged.best_fitness_history.size(),
                                          r.best_fitness_history.size());
      for (std::size_t g = 0; g < common; ++g) {
        merged.best_fitness_history[g] =
            std::max(merged.best_fitness_history[g], r.best_fitness_history[g]);
      }
    }
  }

  GraEngine::set_fitness_gauges(engines);
  DgraResult out{std::move(merged)};

  out.traffic = network.stats();
  out.retry_stats = shared.retry_stats;
  for (const auto& node : nodes)
    out.epochs = std::max(out.epochs, node->epochs_done());
  out.migrations_sent = shared.migrations_sent;
  out.migrations_applied = shared.migrations_applied;
  out.migrations_missed = shared.migrations_missed;
  out.elites_readmitted = shared.elites_readmitted;
  out.islands_crashed = shared.islands_crashed;
  out.round_time = network.queue().now();
  out.envelope_log = std::move(shared.envelope_log);
  return out;
}

}  // namespace drep::dist
