#include "online/controller.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace drep::online {
namespace {

TEST(ControllerConfig, ValidateRejectsOutOfRangeFields) {
  ControllerConfig config;
  EXPECT_NO_THROW(config.validate());
  config.break_even = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.evict_factor = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.trust = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.hot_boost = 2.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.cold_damp = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.trust = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.hot_boost = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    config = {};
    config.break_even = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << bad;
    config = {};
    config.evict_factor = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << bad;
    config = {};
    config.cold_damp = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << bad;
  }
}

TEST(BreakEvenController, ReplicatesWhenThePenaltyReachesBreakEven) {
  ControllerConfig config;
  config.break_even = 2.0;  // needs two fetches' worth of penalty
  config.trust = 0.0;
  BreakEvenController controller(config, 2, 2);
  EXPECT_FALSE(controller.note_remote_read(1, 0, 10.0, Heat::kWarm));
  EXPECT_DOUBLE_EQ(controller.penalty(1, 0), 10.0);
  EXPECT_TRUE(controller.note_remote_read(1, 0, 10.0, Heat::kWarm));
  // Other cells are untouched.
  EXPECT_DOUBLE_EQ(controller.penalty(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(controller.penalty(1, 1), 0.0);
}

TEST(BreakEvenController, EvictsWhenCarriedCostReachesTheRefetchCost) {
  ControllerConfig config;
  config.trust = 0.0;
  BreakEvenController controller(config, 2, 1);
  // Query is pure: nothing accumulates until absorb_update.
  EXPECT_FALSE(controller.should_evict(1, 0, 4.0, 10.0, Heat::kWarm));
  EXPECT_DOUBLE_EQ(controller.carried(1, 0), 0.0);
  controller.absorb_update(1, 0, 4.0);
  controller.absorb_update(1, 0, 4.0);
  EXPECT_FALSE(controller.should_evict(1, 0, 1.0, 10.0, Heat::kWarm));
  EXPECT_TRUE(controller.should_evict(1, 0, 2.0, 10.0, Heat::kWarm));
  // A local read renews the replica: the meter restarts.
  controller.note_local_read(1, 0);
  EXPECT_DOUBLE_EQ(controller.carried(1, 0), 0.0);
  EXPECT_FALSE(controller.should_evict(1, 0, 2.0, 10.0, Heat::kWarm));
}

TEST(BreakEvenController, ResetClearsBothMeters) {
  BreakEvenController controller({}, 1, 1);
  (void)controller.note_remote_read(0, 0, 5.0, Heat::kWarm);
  controller.absorb_update(0, 0, 3.0);
  controller.reset(0, 0);
  EXPECT_DOUBLE_EQ(controller.penalty(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(controller.carried(0, 0), 0.0);
}

// trust 0 degenerates to pure ski-rental: every multiplier is 1 and heat
// has no influence on either decision.
TEST(BreakEvenController, ZeroTrustIgnoresPredictions) {
  ControllerConfig config;
  config.trust = 0.0;
  BreakEvenController controller(config, 1, 3);
  for (const Heat heat : {Heat::kCold, Heat::kWarm, Heat::kHot}) {
    EXPECT_DOUBLE_EQ(controller.replicate_multiplier(heat), 1.0);
    EXPECT_DOUBLE_EQ(controller.evict_multiplier(heat), 1.0);
  }
}

TEST(BreakEvenController, FullTrustBlendsToTheConfiguredMultipliers) {
  ControllerConfig config;
  config.trust = 1.0;
  config.hot_boost = 0.0;
  config.cold_damp = 3.0;
  BreakEvenController controller(config, 1, 1);
  // Favored direction: replicate hot immediately, evict cold immediately.
  EXPECT_DOUBLE_EQ(controller.replicate_multiplier(Heat::kHot), 0.0);
  EXPECT_DOUBLE_EQ(controller.evict_multiplier(Heat::kCold), 0.0);
  // Disfavored direction: replicating cold / evicting hot is damped.
  EXPECT_DOUBLE_EQ(controller.replicate_multiplier(Heat::kCold), 3.0);
  EXPECT_DOUBLE_EQ(controller.evict_multiplier(Heat::kHot), 3.0);
  // Warm stays at the neutral threshold.
  EXPECT_DOUBLE_EQ(controller.replicate_multiplier(Heat::kWarm), 1.0);
  EXPECT_DOUBLE_EQ(controller.evict_multiplier(Heat::kWarm), 1.0);
}

TEST(BreakEvenController, HalfTrustInterpolatesLinearly) {
  ControllerConfig config;
  config.trust = 0.5;
  config.hot_boost = 0.0;
  config.cold_damp = 3.0;
  BreakEvenController controller(config, 1, 1);
  EXPECT_DOUBLE_EQ(controller.replicate_multiplier(Heat::kHot), 0.5);
  EXPECT_DOUBLE_EQ(controller.replicate_multiplier(Heat::kCold), 2.0);
}

}  // namespace
}  // namespace drep::online
