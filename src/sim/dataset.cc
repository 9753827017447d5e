#include "sim/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "exec/thread_pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/world.h"

namespace o2sr::sim {

// City-wide demand activity per 2-hour slot (mean ~1): order placement
// peaks at the noon rush (10-14) and evening rush (16-20), as in Fig. 1.
const std::vector<double>& DefaultDemandSlotProfile() {
  static const std::vector<double> kProfile = {
      0.25, 0.12, 0.10, 0.60, 1.20, 2.40, 2.20, 1.10, 2.10, 1.90, 0.90, 0.55};
  return kProfile;
}

std::vector<Store> GenerateStores(const SimConfig& config,
                                  const CityModel& city,
                                  const std::vector<StoreType>& catalog,
                                  Rng& rng) {
  const int num_regions = city.grid.NumRegions();
  // Stores open where their type sells: per-type region weights combine the
  // population density with the type's demographic affinity. This market-
  // equilibrium placement is what makes neighborhood customer preferences
  // strongly predictive of order counts (Table II of the paper).
  std::vector<CategoricalTable> region_table_per_type;
  region_table_per_type.reserve(catalog.size());
  std::vector<double> w(num_regions);
  for (size_t t = 0; t < catalog.size(); ++t) {
    for (int r = 0; r < num_regions; ++r) {
      double affinity = 0.0;
      for (int c = 0; c < geo::kNumPoiCategories; ++c) {
        affinity += catalog[t].poi_affinity[c] * city.demographics[r][c];
      }
      w[r] = city.density[r] * std::pow(0.25 + affinity, 1.5) + 1e-12;
    }
    region_table_per_type.push_back(MakeCategoricalTable(w));
  }
  std::vector<double> type_weights(catalog.size());
  for (size_t t = 0; t < catalog.size(); ++t) {
    type_weights[t] = catalog[t].popularity;
  }
  const CategoricalTable type_table = MakeCategoricalTable(type_weights);
  std::vector<Store> stores;
  stores.reserve(config.num_stores);
  for (int i = 0; i < config.num_stores; ++i) {
    Store store;
    store.id = i;
    store.type = rng.Categorical(type_table);
    store.region = rng.Categorical(region_table_per_type[store.type]);
    const int region = store.region;
    const geo::Point base = city.grid.Center(region);
    store.location = {
        Clamp(base.x + rng.Uniform(-0.5, 0.5) * config.cell_m, 0.0,
              config.city_width_m - 1.0),
        Clamp(base.y + rng.Uniform(-0.5, 0.5) * config.cell_m, 0.0,
              config.city_height_m - 1.0)};
    store.quality = std::exp(rng.Normal(0.0, 0.35));
    stores.push_back(store);
  }
  return stores;
}

Dataset GenerateDataset(const SimConfig& config) {
  return GenerateDataset(config, WorldOverrides());
}

Dataset GenerateDataset(const SimConfig& config,
                        const WorldOverrides& overrides) {
  O2SR_TRACE_SCOPE("sim.generate_dataset");
  Rng rng(config.seed);
  const World world = BuildWorld(config, overrides, rng);
  Dataset data = WorldDataset(world);
  const int num_regions = data.num_regions();
  const CandidateIndex candidates = BuildCandidates(world, 0, num_regions);

  // The scope factor applied where a region-slot drew any attempt, summed
  // per period on the calling thread.
  data.scope_factor_per_period.assign(kNumPeriods, 0.0);
  std::vector<int> scope_samples(kNumPeriods, 0);
  {
    // The out-of-core generator's per-(day, region) draws, collected: one
    // ParallelFor per day, each region into its own buffer, the buffers
    // appended in region order.
    O2SR_TRACE_SCOPE("sim.orders");
    std::vector<std::vector<Order>> region_orders(num_regions);
    std::vector<uint32_t> slots_with_attempts(num_regions);
    for (int day = 0; day < config.num_days; ++day) {
      exec::CurrentPool().ParallelFor(
          num_regions, 1,
          [&](int64_t u) {
            std::vector<Order>& orders = region_orders[u];
            orders.clear();
            slots_with_attempts[u] = DrawRegionDay(
                world, candidates, day, static_cast<int>(u),
                [&orders](const Order& o) { orders.push_back(o); });
          },
          "sim.generate_orders");
      for (const std::vector<Order>& orders : region_orders) {
        data.orders.insert(data.orders.end(), orders.begin(), orders.end());
      }
      for (int slot = 0; slot < kSlotsPerDay; ++slot) {
        const int period = static_cast<int>(PeriodOfSlot(slot));
        for (int u = 0; u < num_regions; ++u) {
          if ((slots_with_attempts[u] >> slot & 1u) == 0) continue;
          data.scope_factor_per_period[period] += world.scope_factor(slot, u);
          ++scope_samples[period];
        }
      }
    }
  }
  for (int p = 0; p < kNumPeriods; ++p) {
    if (scope_samples[p] > 0) {
      data.scope_factor_per_period[p] /= scope_samples[p];
    }
  }

  data.slot_stats.resize(config.num_days * kSlotsPerDay);
  std::vector<double> delivery_minutes_sum(data.slot_stats.size(), 0.0);
  for (size_t i = 0; i < data.orders.size(); ++i) {
    Order& order = data.orders[i];
    order.order_id = static_cast<int>(i);
    const int cell = order.day * kSlotsPerDay + order.slot;
    ++data.slot_stats[cell].orders;
    delivery_minutes_sum[cell] += order.delivery_minutes();
  }
  for (int day = 0; day < config.num_days; ++day) {
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      const int cell = day * kSlotsPerDay + slot;
      SlotStats& stats = data.slot_stats[cell];
      stats.day = day;
      stats.slot = slot;
      // Drawn from the world stream BuildWorld left behind.
      stats.active_couriers = std::max(
          1, rng.Poisson(config.num_couriers * SupplySlotProfile()[slot]));
      stats.mean_delivery_minutes =
          stats.orders > 0 ? delivery_minutes_sum[cell] / stats.orders : 0.0;
    }
  }

  static obs::Counter* orders_counter =
      obs::MetricsRegistry::Global().GetCounter("sim.orders_generated");
  orders_counter->Increment(data.orders.size());
  O2SR_LOG(DEBUG) << "simulated " << data.orders.size() << " orders across "
                  << num_regions << " regions (" << data.stores.size()
                  << " stores, " << data.num_types() << " types)";
  return data;
}

}  // namespace o2sr::sim
