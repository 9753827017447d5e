#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "features/analysis.h"
#include "features/order_stats.h"
#include "features/region_features.h"
#include "sim/dataset.h"

namespace o2sr::features {
namespace {

sim::SimConfig TestConfig() {
  sim::SimConfig cfg;
  cfg.city_width_m = 5000.0;
  cfg.city_height_m = 5000.0;
  cfg.num_store_types = 14;
  cfg.num_stores = 220;
  cfg.num_couriers = 110;
  cfg.num_days = 4;
  cfg.peak_orders_per_region_slot = 4.0;
  cfg.seed = 23;
  return cfg;
}

const sim::Dataset& Data() {
  static const sim::Dataset* data =
      new sim::Dataset(sim::GenerateDataset(TestConfig()));
  return *data;
}

const OrderStats& Stats() {
  static const OrderStats* stats = new OrderStats(Data());
  return *stats;
}

TEST(OrderStatsTest, TotalsMatchOrderLog) {
  double total = 0.0;
  for (int s = 0; s < Stats().num_regions(); ++s) {
    for (int a = 0; a < Stats().num_types(); ++a) {
      total += Stats().OrdersOfTypeInRegion(s, a);
    }
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(Data().orders.size()));
}

TEST(OrderStatsTest, PeriodBreakdownSumsToTotal) {
  for (int s = 0; s < Stats().num_regions(); s += 7) {
    for (int a = 0; a < Stats().num_types(); ++a) {
      double period_sum = 0.0;
      for (int p = 0; p < sim::kNumPeriods; ++p) {
        period_sum += Stats().OrdersOfTypeInRegionPeriod(p, s, a);
      }
      EXPECT_DOUBLE_EQ(period_sum, Stats().OrdersOfTypeInRegion(s, a));
    }
  }
}

TEST(OrderStatsTest, CustomerOrdersMatchOrderLog) {
  double total = 0.0;
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    for (int u = 0; u < Stats().num_regions(); ++u) {
      for (int a = 0; a < Stats().num_types(); ++a) {
        total += Stats().CustomerOrders(p, u, a);
      }
    }
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(Data().orders.size()));
}

TEST(OrderStatsTest, PairStatsAreConsistent) {
  // Recount one well-populated pair by hand.
  const sim::Order& probe = Data().orders[Data().orders.size() / 2];
  const int p = static_cast<int>(probe.period());
  int count = 0;
  double minutes = 0.0;
  for (const sim::Order& o : Data().orders) {
    if (static_cast<int>(o.period()) == p &&
        o.store_region == probe.store_region &&
        o.customer_region == probe.customer_region) {
      ++count;
      minutes += o.delivery_minutes();
    }
  }
  const PairStats* pair =
      Stats().Pair(p, probe.store_region, probe.customer_region);
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->transactions, count);
  EXPECT_NEAR(pair->mean_delivery_minutes(), minutes / count, 1e-9);
}

TEST(OrderStatsTest, UnobservedPairIsNull) {
  // A pair of far-apart corners should never transact.
  const int far_a = 0;
  const int far_b = Stats().num_regions() - 1;
  EXPECT_EQ(Stats().Pair(0, far_a, far_b), nullptr);
}

TEST(OrderStatsTest, FarthestDistanceBoundsMean) {
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    for (int s = 0; s < Stats().num_regions(); s += 5) {
      EXPECT_GE(Stats().FarthestDistance(p, s), Stats().MeanDistance(p, s));
    }
  }
}

TEST(OrderStatsTest, RushHourSupplyDemandRatioIsLower) {
  // Region-level supply-demand ratio averaged over busy regions must dip at
  // the noon rush relative to the afternoon.
  double noon = 0.0, afternoon = 0.0;
  int count = 0;
  for (int s = 0; s < Stats().num_regions(); ++s) {
    if (Stats().TotalStoreRegionOrders(s) < 50) continue;
    noon += Stats().SupplyDemandRatio(
        static_cast<int>(sim::Period::kNoonRush), s);
    afternoon += Stats().SupplyDemandRatio(
        static_cast<int>(sim::Period::kAfternoon), s);
    ++count;
  }
  ASSERT_GT(count, 5);
  EXPECT_LT(noon, afternoon);
}

TEST(RegionFeaturesTest, ShapeAndRange) {
  const nn::Tensor f = RegionFeatureExtractor::Compute(Data());
  EXPECT_EQ(f.rows(), Data().num_regions());
  EXPECT_EQ(f.cols(), RegionFeatureExtractor::kDim);
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_GE(f.data()[i], 0.0f);
    EXPECT_LE(f.data()[i], 1.0f);
  }
}

TEST(RegionFeaturesTest, DowntownHasRicherFeatures) {
  const nn::Tensor f = RegionFeatureExtractor::Compute(Data());
  const int center = Data().city.grid.RegionOf({2500.0, 2500.0});
  double center_sum = 0.0, corner_sum = 0.0;
  for (int c = 0; c < f.cols(); ++c) {
    center_sum += f.at(center, c);
    corner_sum += f.at(0, c);
  }
  EXPECT_GT(center_sum, corner_sum);
}

TEST(CommercialFeaturesTest, CompetitivenessInUnitRange) {
  const CommercialFeatures cf(Data());
  for (int r = 0; r < Data().num_regions(); r += 3) {
    double sum = 0.0;
    for (int a = 0; a < Data().num_types(); ++a) {
      const double c = cf.Competitiveness(r, a);
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
      sum += c;
    }
    // Shares of a region's own stores within the neighborhood can't exceed 1.
    EXPECT_LE(sum, 1.0 + 1e-9);
  }
}

TEST(CommercialFeaturesTest, ComplementarityNormalized) {
  const CommercialFeatures cf(Data());
  for (int r = 0; r < Data().num_regions(); r += 3) {
    for (int a = 0; a < Data().num_types(); ++a) {
      EXPECT_GE(cf.Complementarity(r, a), 0.0);
      EXPECT_LE(cf.Complementarity(r, a), 1.0);
    }
  }
}

TEST(CommercialFeaturesTest, EmptyRegionHasZeroCompetitiveness) {
  const CommercialFeatures cf(Data());
  // Find a region with no stores at all.
  std::vector<bool> has_store(Data().num_regions(), false);
  for (const auto& s : Data().stores) has_store[s.region] = true;
  for (int r = 0; r < Data().num_regions(); ++r) {
    if (has_store[r]) continue;
    for (int a = 0; a < Data().num_types(); ++a) {
      EXPECT_EQ(cf.Competitiveness(r, a), 0.0);
    }
    break;
  }
}

// ---- Motivation analyses (Fig. 1-5, Table II) ------------------------------

TEST(AnalysisTest, SupplyDemandBySlotShapes) {
  const auto series = SupplyDemandBySlot(Data());
  ASSERT_EQ(series.size(), static_cast<size_t>(sim::kSlotsPerDay));
  double max_orders = 0.0, max_couriers = 0.0;
  for (const auto& s : series) {
    max_orders = std::max(max_orders, s.orders_norm);
    max_couriers = std::max(max_couriers, s.couriers_norm);
  }
  EXPECT_DOUBLE_EQ(max_orders, 1.0);
  EXPECT_DOUBLE_EQ(max_couriers, 1.0);
  // Ratio dips at rush slots vs the afternoon (Fig. 1).
  EXPECT_LT(series[5].supply_demand_ratio, series[7].supply_demand_ratio);
  EXPECT_LT(series[9].supply_demand_ratio, series[7].supply_demand_ratio);
}

TEST(AnalysisTest, DeliveryTimeRatioCorrelationIsStronglyNegative) {
  EXPECT_LT(DeliveryTimeRatioCorrelation(Data()), -0.5);
}

TEST(AnalysisTest, DeliveryScopeShrinksAtRush) {
  const auto scope = DeliveryScopeByPeriod(Data());
  ASSERT_EQ(scope.size(), static_cast<size_t>(sim::kNumPeriods));
  const double noon = scope[static_cast<int>(sim::Period::kNoonRush)];
  const double afternoon = scope[static_cast<int>(sim::Period::kAfternoon)];
  EXPECT_GT(noon, 0.0);
  EXPECT_LT(noon, afternoon);
}

TEST(AnalysisTest, DeliveryTimeDistributionSharesSumToOne) {
  const auto dist = DeliveryTimeDistributionByPeriod(Data());
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    double sum = 0.0;
    for (double v : dist.share[p]) sum += v;
    if (sum == 0.0) continue;  // period may lack 2.5-3 km orders
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(AnalysisTest, RushHourShiftsDeliveryTimesRight) {
  // One seed of the test city holds only a handful of 2.5-3 km orders per
  // period, too few for the shares to order reliably; pool the orders of
  // 8 seeds instead.
  sim::Dataset pooled = Data();
  for (uint64_t seed = TestConfig().seed + 1; seed < TestConfig().seed + 8;
       ++seed) {
    sim::SimConfig cfg = TestConfig();
    cfg.seed = seed;
    const sim::Dataset data = sim::GenerateDataset(cfg);
    pooled.orders.insert(pooled.orders.end(), data.orders.begin(),
                         data.orders.end());
  }
  const auto dist = DeliveryTimeDistributionByPeriod(pooled);
  const auto& noon = dist.share[static_cast<int>(sim::Period::kNoonRush)];
  const auto& afternoon =
      dist.share[static_cast<int>(sim::Period::kAfternoon)];
  // Share of long deliveries (40+ minutes) is larger at the noon rush.
  const double noon_long = noon[3] + noon[4];
  const double afternoon_long = afternoon[3] + afternoon[4];
  EXPECT_GT(noon_long, afternoon_long);
}

TEST(AnalysisTest, TopTypesDifferAcrossPeriods) {
  const auto tops = TopTypesByPeriod(Data(), 3);
  ASSERT_EQ(tops.size(), static_cast<size_t>(sim::kNumPeriods));
  for (const auto& period : tops) {
    ASSERT_EQ(period.size(), 3u);
    EXPECT_GE(period[0].orders, period[1].orders);
    EXPECT_GE(period[1].orders, period[2].orders);
  }
  // Morning and night top types differ (Fig. 5).
  EXPECT_NE(tops[static_cast<int>(sim::Period::kMorning)][0].type,
            tops[static_cast<int>(sim::Period::kNight)][0].type);
}

TEST(AnalysisTest, PreferenceCorrelationIsPositiveAndDecaysSlowly) {
  // Table II: neighborhood customer preferences correlate with order counts
  // at every radius, with only small variation in the 1-3 km band and a
  // slow decay beyond. The paper reports ~0.72 on the (very dense) Eleme
  // market; the absolute level scales with store density, so this small
  // test dataset asserts the shape and the dense bench config reproduces
  // the level (see bench_table02_preference_correlation).
  // Note the test city is only 5 km wide, so radii are scaled down: beyond
  // ~half the city width the "neighborhood" degenerates into the whole city
  // and the statistic loses locality (a finite-size artifact the 10 km
  // bench config does not have).
  const double r1 = PreferenceOrderCorrelation(Data(), 1000.0);
  const double r2 = PreferenceOrderCorrelation(Data(), 2000.0);
  const double r3 = PreferenceOrderCorrelation(Data(), 3000.0);
  EXPECT_GT(r1, 0.2);
  EXPECT_GT(r2, 0.15);
  EXPECT_NEAR(r1, r2, 0.12);  // small differences at local radii
  EXPECT_GE(r2, r3 - 0.02);   // decays once the radius covers the city
}

TEST(AnalysisTest, PreferenceCorrelationGrowsWithMarketDensity) {
  // The paper's 0.72 arises in a dense market (~16+ stores per region).
  sim::SimConfig dense = TestConfig();
  dense.num_stores = 900;  // ~9 stores/region vs ~2 in the base config
  const sim::Dataset dense_data = sim::GenerateDataset(dense);
  EXPECT_GT(PreferenceOrderCorrelation(dense_data, 3000.0),
            PreferenceOrderCorrelation(Data(), 3000.0));
}

}  // namespace
}  // namespace o2sr::features
