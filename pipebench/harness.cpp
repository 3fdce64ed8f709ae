#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "serve/audit.hpp"

namespace pipebench {

namespace obs = drep::obs;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double heap_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// --- Report ---------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [existing, entry] : metrics_) {
    if (existing == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

obs::Json Report::metrics_json() const {
  obs::Json out = obs::Json::object();
  for (const auto& [name, entry] : metrics_) {
    obs::Json metric = obs::Json::object();
    metric["value"] = obs::Json(entry.first);
    metric["unit"] = obs::Json(entry.second);
    out[name] = std::move(metric);
  }
  return out;
}

// --- Gate -----------------------------------------------------------------

void Gate::check(bool ok, const std::string& what) {
  std::lock_guard lock(mutex_);
  ++checks_;
  if (ok) return;
  ++failures_;
  if (messages_.size() < 32) messages_.push_back(what);
}

void Gate::expect_clean(const drep::audit::Violations& violations,
                        const std::string& where) {
  std::string detail = where;
  for (const auto& violation : violations)
    detail += "; " + violation.invariant + ": " + violation.detail;
  check(violations.empty(), detail);
}

void Gate::expect_conserved(const drep::sim::TrafficStats& t,
                            const std::string& where) {
  expect_clean(drep::audit::check_message_conservation(
                   {.sent = t.sent_messages,
                    .delivered_data = t.data_messages,
                    .delivered_control = t.control_messages,
                    .dropped_link = t.dropped_link,
                    .dropped_site_down = t.dropped_site_down,
                    .in_flight = 0}),
               where + ": message conservation");
}

void Gate::expect_intact(const drep::serve::SchemeSnapshot& snapshot,
                         const std::string& where) {
  expect_clean(drep::audit::check_snapshot_coherence(snapshot),
               where + ": snapshot integrity");
}

double Gate::take_seconds() {
  std::lock_guard lock(mutex_);
  const double seconds = seconds_;
  seconds_ = 0.0;
  return seconds;
}

void Gate::add_seconds(double seconds) {
  std::lock_guard lock(mutex_);
  seconds_ += seconds;
}

std::size_t Gate::checks() const {
  std::lock_guard lock(mutex_);
  return checks_;
}

std::size_t Gate::failures() const {
  std::lock_guard lock(mutex_);
  return failures_;
}

obs::Json Gate::messages_json() const {
  std::lock_guard lock(mutex_);
  obs::Json out = obs::Json::array();
  for (const std::string& message : messages_) out.push_back(obs::Json(message));
  return out;
}

// --- Tracer ---------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* layer) : tracer_(tracer) {
  if (tracer_ != nullptr)
    tracer_->stack_.push_back({layer, drep::util::Stopwatch{}, 0.0});
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Frame frame = tracer_->stack_.back();
  tracer_->stack_.pop_back();
  const double seconds = frame.watch.seconds();
  tracer_->self_[frame.layer] += seconds - frame.child_seconds;
  if (!tracer_->stack_.empty()) tracer_->stack_.back().child_seconds += seconds;
}

// --- Iterations -----------------------------------------------------------

Iterations::Iterations(const RunConfig& config, std::size_t min_iterations)
    : config_(config),
      min_iterations_(config.trace ? std::max<std::size_t>(min_iterations, 4)
                                   : min_iterations) {}

bool Iterations::next() {
  if (!started_) {
    started_ = true;
    watch_.reset();
  } else {
    ++index_;
  }
  if (index_ >= min_iterations_ && watch_.seconds() >= config_.seconds)
    return false;
  traced_ = config_.trace && index_ % 2 == 1;
  tracer_.enable(traced_);
  tracer_.reset();
  return true;
}

void Iterations::layer(const std::string& name, double value,
                       const std::string& unit) {
  if (traced_) run_layer(name, value, unit);
}

void Iterations::run_layer(const std::string& name, double value,
                           const std::string& unit) {
  auto& entry = layers_[name];
  entry.first.push_back(value);
  entry.second = unit;
}

void Iterations::finish(double pipeline_seconds) {
  if (!traced_) {
    untraced_seconds_.push_back(pipeline_seconds);
    return;
  }
  traced_seconds_.push_back(pipeline_seconds);
  double self_sum = 0.0;
  for (const auto& [layer, seconds] : tracer_.self_seconds()) {
    self_totals_[layer] += seconds;
    self_sum += seconds;
  }
  self_totals_["other"] += pipeline_seconds - self_sum;
}

double Iterations::pipeline_seconds() const {
  return drep::util::mean_of(untraced_seconds_);
}

void Iterations::report_layers(Report& report) const {
  for (const auto& [name, entry] : layers_)
    report.set(name, median(entry.first), entry.second);
  const double traced = static_cast<double>(traced_seconds_.size());
  for (const auto& [layer, seconds] : self_totals_)
    report.set("self." + layer + "_s", seconds / traced, "s");
  double traced_total = 0.0;
  for (const double seconds : traced_seconds_) traced_total += seconds;
  report.set("trace.pipeline_s", traced_total / traced, "s");
  const double untraced = pipeline_seconds();
  report.set("obs.trace_overhead_pct",
             100.0 * (traced_total / traced - untraced) / untraced, "%");
}

// --- ObsDelta -------------------------------------------------------------

void ObsDelta::begin() {
  obs::Registry::global().reset();
  obs::SpanRegistry::global().reset();
}

ObsDelta ObsDelta::end() {
  ObsDelta delta;
  delta.metrics_ = obs::Registry::global().snapshot();
  delta.spans_ = obs::SpanRegistry::global().snapshot();
  return delta;
}

double ObsDelta::counter(std::string_view name) const {
  const obs::MetricSample* sample = metrics_.find(name);
  return sample == nullptr ? 0.0 : sample->value;
}

namespace {
double outermost_seconds(const obs::SpanRegistry::SpanStats& node,
                         std::string_view label) {
  if (node.label == label) return node.seconds;
  double total = 0.0;
  for (const auto& child : node.children)
    total += outermost_seconds(child, label);
  return total;
}
}  // namespace

double ObsDelta::span_seconds(std::string_view label) const {
  return outermost_seconds(spans_, label);
}

// --- LatencyHistogram -----------------------------------------------------

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  std::size_t bucket = 0;
  if (ns < (1u << kSubBits)) {
    bucket = static_cast<std::size_t>(ns);
  } else {
    const int exponent = static_cast<int>(std::bit_width(ns)) - 1;
    const std::uint64_t sub = (ns >> (exponent - kSubBits)) &
                              ((1u << kSubBits) - 1);
    bucket = (static_cast<std::size_t>(exponent - kSubBits + 1) << kSubBits) +
             static_cast<std::size_t>(sub);
  }
  ++counts_[std::min(bucket, kBuckets - 1)];
  ++total_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

double LatencyHistogram::quantile_ns(double q) const noexcept {
  if (total_ == 0) return 0.0;
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
  std::uint64_t before = 0;
  std::size_t bucket = 0;
  for (; bucket + 1 < kBuckets; ++bucket) {
    if (before + counts_[bucket] >= target) break;
    before += counts_[bucket];
  }
  double lower = static_cast<double>(bucket);
  double width = 1.0;
  if (bucket >= (1u << kSubBits)) {
    const std::size_t exponent = (bucket >> kSubBits) + kSubBits - 1;
    const std::size_t sub = bucket & ((1u << kSubBits) - 1);
    width = std::ldexp(1.0, static_cast<int>(exponent) - kSubBits);
    lower = static_cast<double>((1u << kSubBits) + sub) * width;
  }
  // Interpolate by rank inside the bucket, as if its samples were spread
  // evenly over it.
  const double inside = (static_cast<double>(target - before) - 0.5) /
                        static_cast<double>(counts_[bucket]);
  return lower + width * inside;
}

// --- serving passes -------------------------------------------------------

double route_pass(drep::serve::RcuDomain::Reader reader,
                  std::span<const drep::workload::Request> trace,
                  std::size_t passes, double& cost) {
  constexpr std::size_t kBatch = 256;
  const drep::util::Stopwatch watch;
  double sum = 0.0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t j = 0; j < trace.size();) {
      const std::size_t end = std::min(trace.size(), j + kBatch);
      const drep::serve::SchemeSnapshot* snapshot = reader.pin();
      for (; j < end; ++j)
        sum += snapshot->serve(trace[j].site, trace[j].object,
                               trace[j].is_write)
                   .cost;
      reader.unpin();
    }
  }
  const double seconds = watch.seconds();
  cost += sum;
  return seconds;
}

void report_route(Report& report, const LatencyHistogram& latency) {
  report.set("route_p50_ns", latency.quantile_ns(0.50), "ns");
  report.set("route_p90_ns", latency.quantile_ns(0.90), "ns");
}

void record_probe_layers(Iterations& iterations, const ProbeResult& probe) {
  iterations.layer("serve.route_p99_ns", probe.latency.quantile_ns(0.99),
                   "ns");
  iterations.layer("serve.gen_lag_us", probe.lag.quantile_ns(0.99) / 1e3,
                   "us");
  iterations.layer("serve.probe_samples",
                   static_cast<double>(probe.requests), "count");
}

}  // namespace pipebench
