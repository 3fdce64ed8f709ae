#include "workload/stream_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace drep::workload {

namespace {

// Child-stream tags off the config seed. Distinct constants keep topology,
// capacity, and per-object draws statistically independent.
constexpr std::uint64_t kTopologyStream = 0x70B01061;
constexpr std::uint64_t kObjectRootStream = 0x0B7EC75;

}  // namespace

void StreamConfig::validate() const {
  if (sites == 0 || objects == 0)
    throw std::invalid_argument("StreamConfig: sites and objects must be positive");
  if (readers_lo > readers_hi || writers_lo > writers_hi ||
      reads_lo > reads_hi || writes_lo > writes_hi ||
      object_size_lo > object_size_hi)
    throw std::invalid_argument("StreamConfig: range lo must not exceed hi");
  if (readers_lo == 0)
    throw std::invalid_argument("StreamConfig: each object needs at least one reader");
  if (reads_lo == 0)
    throw std::invalid_argument("StreamConfig: read counts must be positive");
  if (writes_lo == 0)
    throw std::invalid_argument("StreamConfig: write counts must be positive");
  if (object_size_lo == 0)
    throw std::invalid_argument("StreamConfig: object sizes must be positive");
  if (!(capacity_fraction > 0.0) || !std::isfinite(capacity_fraction))
    throw std::invalid_argument("StreamConfig: capacity_fraction must be positive");
  if (!(cost_scale > 0.0) || !std::isfinite(cost_scale))
    throw std::invalid_argument("StreamConfig: cost_scale must be positive");
}

StreamGen::StreamGen(const StreamConfig& config)
    : config_(config),
      costs_(config.sites, 0.0),
      object_root_(0) {
  config_.validate();
  const util::Rng master(config_.seed);
  object_root_ = master.fork(kObjectRootStream);

  // Euclidean topology: M points in the unit square; C(i,j) is the scaled
  // pairwise distance. Metric by construction, O(M²) to close.
  util::Rng topo = master.fork(kTopologyStream);
  std::vector<double> xs(config_.sites), ys(config_.sites);
  for (std::size_t i = 0; i < config_.sites; ++i) {
    xs[i] = topo.uniform01();
    ys[i] = topo.uniform01();
  }
  for (net::SiteId i = 0; i < config_.sites; ++i) {
    for (net::SiteId j = i + 1; j < config_.sites; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      const double d = config_.cost_scale * std::sqrt(dx * dx + dy * dy);
      // Degenerate coincident points are kept at cost 0 — the algorithms
      // must tolerate zero off-diagonal costs (and the lex tie-break makes
      // them deterministic anyway).
      costs_.set(i, j, d);
    }
  }

  const double mean_size =
      0.5 * (static_cast<double>(config_.object_size_lo) +
             static_cast<double>(config_.object_size_hi));
  base_capacity_ = config_.capacity_fraction * mean_size *
                   static_cast<double>(config_.objects) /
                   static_cast<double>(config_.sites);
}

ObjectSpec StreamGen::object(core::ObjectId k) const {
  // fork() does not advance the parent, so this is pure in (config, k).
  util::Rng rng = object_root_.fork(k);
  ObjectSpec spec;
  spec.id = k;
  spec.size = static_cast<double>(
      rng.uniform_u64(config_.object_size_lo, config_.object_size_hi));
  const std::size_t m = config_.sites;
  spec.primary = static_cast<core::SiteId>(rng.below(m));

  const std::size_t readers = static_cast<std::size_t>(std::min<std::uint64_t>(
      rng.uniform_u64(config_.readers_lo, config_.readers_hi), m));
  const std::size_t writers = static_cast<std::size_t>(std::min<std::uint64_t>(
      rng.uniform_u64(config_.writers_lo, config_.writers_hi), m));

  // Distinct reader sites by rejection off the object's own stream (readers
  // << M, so collisions are rare; determinism is unaffected either way).
  std::vector<core::SiteId> picked;
  picked.reserve(readers + writers);
  auto pick_fresh = [&]() {
    for (;;) {
      const auto s = static_cast<core::SiteId>(rng.below(m));
      if (std::find(picked.begin(), picked.end(), s) == picked.end()) return s;
    }
  };
  for (std::size_t r = 0; r < readers; ++r) picked.push_back(pick_fresh());
  const std::size_t reader_count = picked.size();

  // Writers prefer the reader pool (plus the primary), spilling to fresh
  // sites when more writers than pool members are requested.
  std::vector<core::SiteId> writer_sites;
  std::vector<core::SiteId> pool(picked);
  if (std::find(pool.begin(), pool.end(), spec.primary) == pool.end())
    pool.push_back(spec.primary);
  for (std::size_t w = 0; w < writers; ++w) {
    if (!pool.empty()) {
      const std::size_t at = rng.index(pool.size());
      writer_sites.push_back(pool[at]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      const auto s = pick_fresh();
      picked.push_back(s);
      writer_sites.push_back(s);
    }
  }

  // Assemble the demand row: counts per chosen cell, then ascending merge.
  struct Cell {
    core::SiteId site;
    double reads;
    double writes;
  };
  std::vector<Cell> cells;
  cells.reserve(reader_count + writer_sites.size());
  for (std::size_t r = 0; r < reader_count; ++r) {
    cells.push_back({picked[r],
                     static_cast<double>(
                         rng.uniform_u64(config_.reads_lo, config_.reads_hi)),
                     0.0});
  }
  for (const core::SiteId s : writer_sites) {
    const double w =
        static_cast<double>(rng.uniform_u64(config_.writes_lo, config_.writes_hi));
    auto it = std::find_if(cells.begin(), cells.end(),
                           [&](const Cell& c) { return c.site == s; });
    if (it != cells.end()) {
      it->writes = w;
    } else {
      cells.push_back({s, 0.0, w});
    }
  }
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.site < b.site; });
  spec.demands.reserve(cells.size());
  for (const Cell& c : cells)
    spec.demands.push_back({c.site, c.reads, c.writes});
  return spec;
}

std::vector<double> StreamGen::capacities() const {
  std::vector<double> pinned(config_.sites, 0.0);
  for (core::ObjectId k = 0; k < config_.objects; ++k) {
    const ObjectSpec spec = object(k);
    pinned[spec.primary] += spec.size;
  }
  std::vector<double> caps(config_.sites, 0.0);
  for (std::size_t i = 0; i < config_.sites; ++i)
    caps[i] = pinned[i] + base_capacity_;
  return caps;
}

core::Problem build_sparse_instance(const StreamConfig& config) {
  const StreamGen gen(config);
  std::vector<double> sizes(config.objects, 0.0);
  std::vector<core::SiteId> primaries(config.objects, 0);
  for (core::ObjectId k = 0; k < config.objects; ++k) {
    const ObjectSpec spec = gen.object(k);
    sizes[k] = spec.size;
    primaries[k] = spec.primary;
  }
  core::Problem instance(
      gen.costs(), std::move(sizes), std::move(primaries), gen.capacities(),
      [&gen](core::ObjectId k) { return gen.object(k).demands; });
  instance.validate();
  return instance;
}

core::Problem materialize_problem(const StreamConfig& config) {
  return build_sparse_instance(config).materialize();
}

}  // namespace drep::workload
