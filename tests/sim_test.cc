#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "sim/dataset.h"

namespace o2sr::sim {
namespace {

SimConfig SmallConfig() {
  SimConfig cfg;
  cfg.city_width_m = 4000.0;
  cfg.city_height_m = 4000.0;
  cfg.num_store_types = 12;
  cfg.num_stores = 150;
  cfg.num_couriers = 80;
  cfg.num_days = 3;
  cfg.peak_orders_per_region_slot = 4.0;
  cfg.seed = 17;
  return cfg;
}

TEST(PeriodTest, HourMapping) {
  EXPECT_EQ(PeriodOfHour(7), Period::kMorning);
  EXPECT_EQ(PeriodOfHour(12), Period::kNoonRush);
  EXPECT_EQ(PeriodOfHour(15), Period::kAfternoon);
  EXPECT_EQ(PeriodOfHour(18), Period::kEveningRush);
  EXPECT_EQ(PeriodOfHour(22), Period::kNight);
  EXPECT_EQ(PeriodOfHour(3), Period::kNight);
}

TEST(PeriodTest, SlotMapping) {
  EXPECT_EQ(PeriodOfSlot(0), Period::kNight);     // 00-02
  EXPECT_EQ(PeriodOfSlot(3), Period::kMorning);   // 06-08
  EXPECT_EQ(PeriodOfSlot(5), Period::kNoonRush);  // 10-12
  EXPECT_EQ(PeriodOfSlot(7), Period::kAfternoon); // 14-16
  EXPECT_EQ(PeriodOfSlot(9), Period::kEveningRush);
  EXPECT_EQ(PeriodOfSlot(11), Period::kNight);
}

TEST(PeriodTest, NamesDistinct) {
  std::set<std::string> names;
  for (int p = 0; p < kNumPeriods; ++p) {
    names.insert(PeriodName(static_cast<Period>(p)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumPeriods));
}

TEST(TypeCatalogTest, SizeAndNormalization) {
  Rng rng(1);
  const auto catalog = BuildTypeCatalog(30, rng);
  ASSERT_EQ(catalog.size(), 30u);
  double popularity = 0.0;
  for (const auto& t : catalog) popularity += t.popularity;
  EXPECT_NEAR(popularity, 1.0, 1e-9);
}

TEST(TypeCatalogTest, NamedTypesComeFirst) {
  Rng rng(1);
  const auto catalog = BuildTypeCatalog(8, rng);
  EXPECT_EQ(catalog[0].name, "light meal");
  EXPECT_EQ(catalog[3].name, "steamed buns");
  EXPECT_EQ(catalog[5].name, "fried chicken");
}

TEST(TypeCatalogTest, ArchetypeProfilesPeakInTheRightSlots) {
  const auto breakfast = ArchetypeSlotActivity(TypeArchetype::kBreakfast);
  EXPECT_EQ(std::distance(breakfast.begin(),
                          std::max_element(breakfast.begin(),
                                           breakfast.end())),
            4);  // 08-10
  const auto lunch = ArchetypeSlotActivity(TypeArchetype::kLunchMeal);
  EXPECT_EQ(std::distance(lunch.begin(),
                          std::max_element(lunch.begin(), lunch.end())),
            5);  // 10-12
  const auto night = ArchetypeSlotActivity(TypeArchetype::kLateNight);
  EXPECT_GE(std::distance(night.begin(),
                          std::max_element(night.begin(), night.end())),
            10);  // late evening
}

TEST(TypeCatalogTest, ProfilesHaveMeanAboutOne) {
  Rng rng(2);
  const auto catalog = BuildTypeCatalog(20, rng);
  for (const auto& t : catalog) {
    EXPECT_NEAR(Mean(t.slot_activity), 1.0, 0.16);
  }
}

TEST(CityTest, DensityNormalizedAndDowntownHeavy) {
  SimConfig cfg = SmallConfig();
  Rng rng(cfg.seed);
  const CityModel city = GenerateCity(cfg, rng);
  double sum = 0.0;
  for (double d : city.density) sum += d;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Central region denser than corner region.
  const auto center = city.grid.RegionOf({2000.0, 2000.0});
  EXPECT_GT(city.density[center], city.density[0]);
}

TEST(CityTest, DemographicsRowsNormalized) {
  SimConfig cfg = SmallConfig();
  Rng rng(cfg.seed);
  const CityModel city = GenerateCity(cfg, rng);
  for (const auto& row : city.demographics) {
    double sum = 0.0;
    for (double v : row) sum += v;
    EXPECT_TRUE(sum == 0.0 || std::abs(sum - 1.0) < 1e-9);
  }
}

TEST(CityTest, GeneratesPoisAndRoads) {
  SimConfig cfg = SmallConfig();
  Rng rng(cfg.seed);
  const CityModel city = GenerateCity(cfg, rng);
  EXPECT_GT(city.pois.size(), 100u);
  EXPECT_GT(city.roads.intersections.size(), 5u);
  EXPECT_GT(city.roads.roads.size(), 4u);
}

TEST(StoreGenTest, StoresWithinCityAndConsistentRegions) {
  SimConfig cfg = SmallConfig();
  Rng rng(cfg.seed);
  const CityModel city = GenerateCity(cfg, rng);
  const auto catalog = BuildTypeCatalog(cfg.num_store_types, rng);
  const auto stores = GenerateStores(cfg, city, catalog, rng);
  ASSERT_EQ(stores.size(), static_cast<size_t>(cfg.num_stores));
  for (const auto& s : stores) {
    EXPECT_GE(s.location.x, 0.0);
    EXPECT_LT(s.location.x, cfg.city_width_m);
    EXPECT_EQ(city.grid.RegionOf(s.location), s.region);
    EXPECT_GE(s.type, 0);
    EXPECT_LT(s.type, cfg.num_store_types);
    EXPECT_GT(s.quality, 0.0);
  }
}

class DatasetTest : public ::testing::Test {
 protected:
  static const Dataset& Data() {
    static const Dataset* data = new Dataset(GenerateDataset(SmallConfig()));
    return *data;
  }
};

TEST_F(DatasetTest, ProducesOrders) {
  EXPECT_GT(Data().orders.size(), 1000u);
}

TEST_F(DatasetTest, DeterministicForSameSeed) {
  const Dataset again = GenerateDataset(SmallConfig());
  ASSERT_EQ(again.orders.size(), Data().orders.size());
  for (size_t i = 0; i < 50 && i < again.orders.size(); ++i) {
    EXPECT_EQ(again.orders[i].store_id, Data().orders[i].store_id);
    EXPECT_DOUBLE_EQ(again.orders[i].delivery_min,
                     Data().orders[i].delivery_min);
  }
}

TEST_F(DatasetTest, DifferentSeedsDiffer) {
  SimConfig cfg = SmallConfig();
  cfg.seed = 99;
  const Dataset other = GenerateDataset(cfg);
  EXPECT_NE(other.orders.size(), Data().orders.size());
}

TEST_F(DatasetTest, OrderFieldsAreConsistent) {
  for (const Order& o : Data().orders) {
    EXPECT_LT(o.creation_min, o.acceptance_min);
    EXPECT_LT(o.acceptance_min, o.pickup_min);
    EXPECT_LT(o.pickup_min, o.delivery_min);
    EXPECT_GE(o.distance_m, 0.0);
    EXPECT_EQ(Data().city.grid.RegionOf(o.customer_location),
              o.customer_region);
    EXPECT_EQ(Data().stores[o.store_id].region, o.store_region);
    EXPECT_EQ(Data().stores[o.store_id].type, o.type);
    EXPECT_GE(o.day, 0);
    EXPECT_LT(o.day, Data().config.num_days);
    EXPECT_GE(o.slot, 0);
    EXPECT_LT(o.slot, kSlotsPerDay);
    // Creation falls inside the slot.
    const double day_min = o.creation_min - o.day * 24.0 * 60.0;
    EXPECT_GE(day_min, o.slot * kSlotMinutes);
    EXPECT_LE(day_min, (o.slot + 1) * kSlotMinutes);
  }
}

TEST_F(DatasetTest, DeliveryTimesAreRealistic) {
  double total = 0.0;
  for (const Order& o : Data().orders) {
    EXPECT_GT(o.delivery_minutes(), 3.0);
    EXPECT_LT(o.delivery_minutes(), 150.0);
    total += o.delivery_minutes();
  }
  const double mean = total / Data().orders.size();
  // Paper context: 30-60 minute on-demand delivery.
  EXPECT_GT(mean, 12.0);
  EXPECT_LT(mean, 60.0);
}

TEST_F(DatasetTest, DistancesRespectMaximumScope) {
  const double max_scope = Data().config.base_scope_m *
                           Data().config.max_scope_factor;
  for (const Order& o : Data().orders) {
    // Customer sampled within the region, so allow one cell of slack.
    EXPECT_LE(o.distance_m, max_scope + Data().config.cell_m);
  }
}

TEST_F(DatasetTest, RushHourHasLowerSupplyDemandRatio) {
  // Aggregate supply-demand ratio per slot (Fig. 1): the noon-rush ratio
  // must be lower than the early-afternoon ratio.
  std::vector<double> couriers(kSlotsPerDay, 0.0), orders(kSlotsPerDay, 0.0);
  for (const SlotStats& s : Data().slot_stats) {
    couriers[s.slot] += s.active_couriers;
    orders[s.slot] += s.orders;
  }
  auto ratio = [&](int slot) {
    return orders[slot] > 0 ? couriers[slot] / orders[slot] : 1e9;
  };
  EXPECT_LT(ratio(5), ratio(7));   // noon rush < afternoon
  EXPECT_LT(ratio(9), ratio(7));   // evening rush < afternoon
}

TEST_F(DatasetTest, RushHourHasLongerDeliveryTimes) {
  std::vector<double> sum(kNumPeriods, 0.0);
  std::vector<int> count(kNumPeriods, 0);
  for (const Order& o : Data().orders) {
    sum[static_cast<int>(o.period())] += o.delivery_minutes();
    ++count[static_cast<int>(o.period())];
  }
  ASSERT_GT(count[static_cast<int>(Period::kNoonRush)], 100);
  ASSERT_GT(count[static_cast<int>(Period::kAfternoon)], 100);
  const double noon = sum[1] / count[1];
  const double afternoon = sum[2] / count[2];
  EXPECT_GT(noon, afternoon);
}

TEST_F(DatasetTest, ScopeShrinksAtRushHours) {
  const auto& scope = Data().scope_factor_per_period;
  EXPECT_LT(scope[static_cast<int>(Period::kNoonRush)],
            scope[static_cast<int>(Period::kAfternoon)]);
  EXPECT_LT(scope[static_cast<int>(Period::kEveningRush)],
            scope[static_cast<int>(Period::kNight)]);
}

TEST_F(DatasetTest, BreakfastTypesPeakInTheMorning) {
  // Orders of "steamed buns" (id 3, breakfast archetype) should be more
  // concentrated in the morning period than "fried chicken" (id 5,
  // late-night archetype).
  std::map<int, std::vector<int>> per_type_period;
  for (const Order& o : Data().orders) {
    auto& v = per_type_period[o.type];
    v.resize(kNumPeriods, 0);
    ++v[static_cast<int>(o.period())];
  }
  auto morning_share = [&](int type) {
    const auto& v = per_type_period[type];
    double total = 0.0;
    for (int c : v) total += c;
    return total > 0 ? v[static_cast<int>(Period::kMorning)] / total : 0.0;
  };
  EXPECT_GT(morning_share(3), morning_share(5) * 2.0);
}

TEST_F(DatasetTest, SupplyDemandRatioCorrelatesNegativelyWithDeliveryTime) {
  // Fig. 2: per-slot supply-demand ratio vs mean delivery time.
  std::vector<double> ratios, times;
  for (const SlotStats& s : Data().slot_stats) {
    if (s.orders < 20) continue;
    ratios.push_back(static_cast<double>(s.active_couriers) / s.orders);
    times.push_back(s.mean_delivery_minutes);
  }
  ASSERT_GT(ratios.size(), 10u);
  EXPECT_LT(PearsonCorrelation(ratios, times), -0.4);
}

TEST(DatasetPresetTest, OpenDataPresetIsSparser) {
  SimConfig cfg = SmallConfig();
  const Dataset dense = GenerateDataset(cfg);
  cfg.preset = SimulationPreset::kOpenData;
  const Dataset sparse = GenerateDataset(cfg);
  EXPECT_LT(sparse.orders.size(), dense.orders.size() * 0.7);
}

}  // namespace
}  // namespace o2sr::sim
