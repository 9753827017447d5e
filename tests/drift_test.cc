#include "sim/drift.h"

#include <cmath>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/dataset.h"

namespace o2sr::sim {
namespace {

SimConfig SmallWorld() {
  SimConfig cfg;
  cfg.city_width_m = 2000.0;
  cfg.city_height_m = 2000.0;
  cfg.num_store_types = 5;
  cfg.num_stores = 80;
  cfg.num_couriers = 40;
  cfg.num_days = 1;
  cfg.seed = 123;
  return cfg;
}

DriftConfig SomeDrift() {
  DriftConfig drift;
  drift.store_close_rate = 0.15;
  drift.store_open_rate = 0.20;
  drift.popularity_walk_sigma = 0.4;
  drift.rush_shift_slots = 0.8;
  drift.seed = 5;
  return drift;
}

// Field-by-field equality of the observable world (the pieces a model
// trains on).
void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.stores.size(), b.stores.size());
  for (size_t i = 0; i < a.stores.size(); ++i) {
    EXPECT_EQ(a.stores[i].id, b.stores[i].id) << i;
    EXPECT_EQ(a.stores[i].type, b.stores[i].type) << i;
    EXPECT_EQ(a.stores[i].region, b.stores[i].region) << i;
    EXPECT_DOUBLE_EQ(a.stores[i].quality, b.stores[i].quality) << i;
  }
  ASSERT_EQ(a.orders.size(), b.orders.size());
  for (size_t i = 0; i < a.orders.size(); ++i) {
    EXPECT_EQ(a.orders[i].store_id, b.orders[i].store_id) << i;
    EXPECT_EQ(a.orders[i].type, b.orders[i].type) << i;
    EXPECT_EQ(a.orders[i].slot, b.orders[i].slot) << i;
    EXPECT_DOUBLE_EQ(a.orders[i].delivery_min, b.orders[i].delivery_min)
        << i;
  }
}

// --- ShiftSlotProfile ---------------------------------------------------

TEST(ShiftSlotProfileTest, ZeroShiftIsIdentity) {
  const std::vector<double> profile = {1.0, 2.0, 3.0, 4.0};
  const auto shifted = ShiftSlotProfile(profile, 0.0);
  ASSERT_EQ(shifted.size(), profile.size());
  for (size_t i = 0; i < profile.size(); ++i) {
    EXPECT_DOUBLE_EQ(shifted[i], profile[i]) << i;
  }
}

TEST(ShiftSlotProfileTest, IntegerShiftRotatesCircularly) {
  const std::vector<double> profile = {1.0, 2.0, 3.0, 4.0};
  // Positive shift moves the rush later in the day: slot i reads what used
  // to be at i - shift (mod n).
  const auto shifted = ShiftSlotProfile(profile, 1.0);
  const std::vector<double> expected = {4.0, 1.0, 2.0, 3.0};
  ASSERT_EQ(shifted.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(shifted[i], expected[i], 1e-12);
}

TEST(ShiftSlotProfileTest, FractionalShiftInterpolatesAndPreservesMass) {
  const std::vector<double> profile = {0.2, 1.5, 3.0, 0.7, 2.1, 0.5};
  const auto shifted = ShiftSlotProfile(profile, 1.37);
  const double mass =
      std::accumulate(profile.begin(), profile.end(), 0.0);
  const double shifted_mass =
      std::accumulate(shifted.begin(), shifted.end(), 0.0);
  // Linear interpolation on a circle is mass-preserving: the day's total
  // demand doesn't change, only when it happens.
  EXPECT_NEAR(shifted_mass, mass, 1e-9);
  // Every value stays within the original envelope.
  for (double v : shifted) {
    EXPECT_GE(v, 0.2 - 1e-12);
    EXPECT_LE(v, 3.0 + 1e-12);
  }
}

TEST(ShiftSlotProfileTest, NegativeAndWrappedShiftsAreCircular) {
  const std::vector<double> profile = {1.0, 2.0, 3.0, 4.0};
  const auto minus_one = ShiftSlotProfile(profile, -1.0);
  const auto plus_three = ShiftSlotProfile(profile, 3.0);
  const auto plus_seven = ShiftSlotProfile(profile, 7.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(minus_one[i], plus_three[i], 1e-12) << i;
    EXPECT_NEAR(plus_three[i], plus_seven[i], 1e-12) << i;
  }
}

// --- GenerateDriftedDataset --------------------------------------------

TEST(DriftTest, EpochZeroIsTheBaseWorldExactly) {
  const SimConfig base = SmallWorld();
  const Dataset original = GenerateDataset(base);
  DriftStats stats;
  const Dataset epoch0 =
      GenerateDriftedDataset(base, SomeDrift(), 0, &stats);
  ExpectSameDataset(original, epoch0);
  EXPECT_EQ(stats.epoch, 0);
  EXPECT_EQ(stats.stores_closed, 0);
  EXPECT_EQ(stats.stores_opened, 0);
  EXPECT_DOUBLE_EQ(stats.demand_shift_slots, 0.0);
}

TEST(DriftTest, SameEpochRegeneratesTheIdenticalWorld) {
  const SimConfig base = SmallWorld();
  const DriftConfig drift = SomeDrift();
  DriftStats stats_a, stats_b;
  const Dataset a = GenerateDriftedDataset(base, drift, 3, &stats_a);
  const Dataset b = GenerateDriftedDataset(base, drift, 3, &stats_b);
  ExpectSameDataset(a, b);
  EXPECT_EQ(stats_a.stores_closed, stats_b.stores_closed);
  EXPECT_EQ(stats_a.stores_opened, stats_b.stores_opened);
  EXPECT_DOUBLE_EQ(stats_a.demand_shift_slots, stats_b.demand_shift_slots);
}

TEST(DriftTest, DriftActuallyChangesTheWorld) {
  const SimConfig base = SmallWorld();
  DriftStats stats;
  const Dataset drifted =
      GenerateDriftedDataset(base, SomeDrift(), 2, &stats);
  EXPECT_EQ(stats.epoch, 2);
  // Over 2 epochs at 15%/20% rates some churn is all but certain, and the
  // draw is deterministic anyway.
  EXPECT_GT(stats.stores_closed, 0);
  EXPECT_GT(stats.stores_opened, 0);
  EXPECT_NE(stats.demand_shift_slots, 0.0);
  EXPECT_EQ(stats.num_stores, static_cast<int>(drifted.stores.size()));
  // The popularity walk moved off 1.0 for at least one type.
  ASSERT_EQ(stats.type_popularity_scale.size(),
            static_cast<size_t>(base.num_store_types));
  bool moved = false;
  for (double s : stats.type_popularity_scale) {
    EXPECT_GT(s, 0.0);
    moved = moved || std::abs(s - 1.0) > 1e-9;
  }
  EXPECT_TRUE(moved);
}

TEST(DriftTest, DriftSeedSelectsTheFuture) {
  const SimConfig base = SmallWorld();
  DriftConfig drift_a = SomeDrift();
  DriftConfig drift_b = SomeDrift();
  drift_b.seed = drift_a.seed + 1;
  DriftStats stats_a, stats_b;
  (void)GenerateDriftedDataset(base, drift_a, 2, &stats_a);
  (void)GenerateDriftedDataset(base, drift_b, 2, &stats_b);
  // Different drift futures from the same base world.
  EXPECT_TRUE(stats_a.stores_closed != stats_b.stores_closed ||
              stats_a.demand_shift_slots != stats_b.demand_shift_slots ||
              stats_a.type_popularity_scale != stats_b.type_popularity_scale);
}

TEST(DriftTest, StoreIdsStayContiguousAcrossEpochs) {
  // features/analysis.cc indexes per-store vectors by store id; drift must
  // reindex after churn or every downstream consumer breaks.
  const SimConfig base = SmallWorld();
  for (int epoch : {1, 2, 4}) {
    const Dataset drifted = GenerateDriftedDataset(base, SomeDrift(), epoch);
    for (size_t i = 0; i < drifted.stores.size(); ++i) {
      ASSERT_EQ(drifted.stores[i].id, static_cast<int>(i))
          << "epoch " << epoch;
    }
    for (const Order& order : drifted.orders) {
      ASSERT_GE(order.store_id, 0);
      ASSERT_LT(order.store_id, static_cast<int>(drifted.stores.size()))
          << "epoch " << epoch;
    }
  }
}

// Each epoch is a new window of orders: with (next to) nothing drifting,
// epoch 1 draws fresh orders over the same stores instead of replaying
// epoch 0's random numbers. A replayed order has an exact twin in epoch 0:
// the same store and the same delivery time to the bit.
TEST(DriftTest, EachEpochDrawsItsOwnOrders) {
  const SimConfig base = SmallWorld();
  DriftConfig still;
  still.store_close_rate = 0.0;
  still.store_open_rate = 0.0;
  // Normal draws need a positive std-dev.
  still.popularity_walk_sigma = 1e-12;
  still.rush_shift_slots = 1e-12;
  const Dataset epoch0 = GenerateDriftedDataset(base, still, 0);
  const Dataset epoch1 = GenerateDriftedDataset(base, still, 1);
  ASSERT_EQ(epoch0.stores.size(), epoch1.stores.size());
  ASSERT_GT(epoch1.orders.size(), 100u);
  std::set<std::pair<int, double>> epoch0_orders;
  for (const Order& o : epoch0.orders) {
    epoch0_orders.insert({o.store_id, o.delivery_min});
  }
  size_t replayed = 0;
  for (const Order& o : epoch1.orders) {
    replayed += epoch0_orders.count({o.store_id, o.delivery_min});
  }
  EXPECT_LT(replayed, epoch1.orders.size() / 10);
}

TEST(DriftTest, EpochsComposeCumulatively) {
  const SimConfig base = SmallWorld();
  const DriftConfig drift = SomeDrift();
  DriftStats stats1, stats3;
  (void)GenerateDriftedDataset(base, drift, 1, &stats1);
  (void)GenerateDriftedDataset(base, drift, 3, &stats3);
  // Cumulative churn counters never shrink with more epochs.
  EXPECT_GE(stats3.stores_closed, stats1.stores_closed);
  EXPECT_GE(stats3.stores_opened, stats1.stores_opened);
}

}  // namespace
}  // namespace o2sr::sim
