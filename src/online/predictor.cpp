#include "online/predictor.hpp"

#include <cmath>
#include <stdexcept>

namespace drep::online {

void PredictorConfig::validate() const {
  if (window == 0)
    throw std::invalid_argument("PredictorConfig: window must be > 0");
  if (!(alpha > 0.0) || alpha > 1.0)
    throw std::invalid_argument("PredictorConfig: alpha must be in (0, 1]");
  if (!std::isfinite(hot_factor) || hot_factor < 1.0)
    throw std::invalid_argument(
        "PredictorConfig: hot_factor must be finite and >= 1");
  if (!(0.0 <= cold_factor && cold_factor <= 1.0))
    throw std::invalid_argument(
        "PredictorConfig: cold_factor must be in [0, 1]");
}

std::vector<Heat> classify_rates(std::span<const double> rates,
                                 const PredictorConfig& config) {
  std::vector<Heat> classes(rates.size(), Heat::kWarm);
  if (rates.empty()) return classes;
  double mean = 0.0;
  for (const double rate : rates) mean += rate;
  mean /= static_cast<double>(rates.size());
  if (mean <= 0.0) return classes;  // no evidence: everything warm
  for (std::size_t k = 0; k < rates.size(); ++k) {
    if (rates[k] > config.hot_factor * mean) {
      classes[k] = Heat::kHot;
    } else if (rates[k] < config.cold_factor * mean) {
      classes[k] = Heat::kCold;
    }
  }
  return classes;
}

Predictor::Predictor(const PredictorConfig& config, std::size_t objects)
    : config_(config),
      window_counts_(objects, 0.0),
      rates_(objects, 0.0),
      classes_(objects, Heat::kWarm) {
  config.validate();
}

bool Predictor::observe(const workload::Request& request) {
  window_counts_.at(request.object) += 1.0;
  if (++in_window_ < config_.window) return false;
  roll_window();
  return true;
}

void Predictor::roll_window() {
  const double alpha = config_.alpha;
  for (std::size_t k = 0; k < rates_.size(); ++k) {
    rates_[k] = alpha * window_counts_[k] + (1.0 - alpha) * rates_[k];
    window_counts_[k] = 0.0;
  }
  classes_ = classify_rates(rates_, config_);
  in_window_ = 0;
  ++windows_closed_;
}

}  // namespace drep::online
