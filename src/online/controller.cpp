#include "online/controller.hpp"

#include <cmath>
#include <stdexcept>

namespace drep::online {

namespace {

/// 1 + t·(target - 1): the threshold multiplier interpolated from the
/// neutral 1 toward `target` by trust t.
double blend(double trust, double target) {
  return 1.0 + trust * (target - 1.0);
}

}  // namespace

void ControllerConfig::validate() const {
  if (!std::isfinite(break_even) || break_even <= 0.0)
    throw std::invalid_argument(
        "ControllerConfig: break_even must be finite and > 0");
  if (!std::isfinite(evict_factor) || evict_factor <= 0.0)
    throw std::invalid_argument(
        "ControllerConfig: evict_factor must be finite and > 0");
  if (!(0.0 <= trust && trust <= 1.0))
    throw std::invalid_argument("ControllerConfig: trust must be in [0, 1]");
  if (!(0.0 <= hot_boost && hot_boost <= 1.0))
    throw std::invalid_argument("ControllerConfig: hot_boost must be in [0, 1]");
  if (!std::isfinite(cold_damp) || cold_damp < 1.0)
    throw std::invalid_argument(
        "ControllerConfig: cold_damp must be finite and >= 1");
}

BreakEvenController::BreakEvenController(const ControllerConfig& config,
                                         std::size_t sites,
                                         std::size_t objects)
    : config_(config),
      objects_(objects),
      penalty_(sites * objects, 0.0),
      carried_(sites * objects, 0.0) {
  config.validate();
}

double BreakEvenController::replicate_multiplier(Heat heat) const {
  switch (heat) {
    case Heat::kHot:
      return blend(config_.trust, config_.hot_boost);
    case Heat::kCold:
      return blend(config_.trust, config_.cold_damp);
    case Heat::kWarm:
      break;
  }
  return 1.0;
}

double BreakEvenController::evict_multiplier(Heat heat) const {
  switch (heat) {
    case Heat::kHot:
      return blend(config_.trust, config_.cold_damp);
    case Heat::kCold:
      return blend(config_.trust, config_.hot_boost);
    case Heat::kWarm:
      break;
  }
  return 1.0;
}

bool BreakEvenController::note_remote_read(core::SiteId i, core::ObjectId k,
                                           double fetch_now, Heat heat) {
  double& penalty = penalty_[cell(i, k)];
  penalty += fetch_now;
  if (fetch_now <= 0.0) return false;  // a free fetch buys nothing
  return penalty >=
         replicate_multiplier(heat) * config_.break_even * fetch_now;
}

bool BreakEvenController::should_evict(core::SiteId i, core::ObjectId k,
                                       double charge, double refetch,
                                       Heat heat) const {
  if (refetch <= 0.0) return true;  // re-creating it later is free
  return carried_[cell(i, k)] + charge >=
         evict_multiplier(heat) * config_.evict_factor * refetch;
}

void BreakEvenController::absorb_update(core::SiteId i, core::ObjectId k,
                                        double charge) {
  carried_[cell(i, k)] += charge;
}

void BreakEvenController::note_local_read(core::SiteId i, core::ObjectId k) {
  carried_[cell(i, k)] = 0.0;
}

void BreakEvenController::reset(core::SiteId i, core::ObjectId k) {
  penalty_[cell(i, k)] = 0.0;
  carried_[cell(i, k)] = 0.0;
}

}  // namespace drep::online
