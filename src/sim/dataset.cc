#include "sim/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
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
  // The static world (city, stores, preference/courier tables) and the
  // per-attempt order sampler live in sim/world.h, shared with the
  // streaming out-of-core generator (sim/stream.h). BuildWorld and
  // SampleOrderAttempt consume `rng` in exactly the order the monolithic
  // generator did, so this function is bit-identical to its pre-split
  // self.
  const World world = BuildWorld(config, overrides, rng);
  Dataset data = WorldDataset(world);
  const int num_regions = data.num_regions();
  const int num_types = data.num_types();
  const CandidateIndex candidates = BuildCandidates(world, 0, num_regions);
  std::vector<std::vector<CategoricalTable>> type_choice(num_regions);
  for (int u = 0; u < num_regions; ++u) {
    type_choice[u] = TypeChoiceTables(world, u);
  }

  // ---- Order generation ---------------------------------------------------

  // Covers the day/slot demand loop and the courier dispatch inside it.
  O2SR_TRACE_SCOPE("sim.orders");
  data.scope_factor_per_period.assign(kNumPeriods, 0.0);
  std::vector<int> scope_samples(kNumPeriods, 0);

  int next_order_id = 0;
  for (int day = 0; day < config.num_days; ++day) {
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      const Period period = PeriodOfSlot(slot);
      SlotStats stats;
      stats.day = day;
      stats.slot = slot;
      stats.active_couriers = std::max(
          1, rng.Poisson(config.num_couriers * SupplySlotProfile()[slot]));
      double delivery_minutes_sum = 0.0;

      for (int u = 0; u < num_regions; ++u) {
        const int attempts = rng.Poisson(world.expected_demand[slot][u] *
                                         rng.Uniform(0.85, 1.15));
        if (attempts == 0) continue;
        for (int k = 0; k < attempts; ++k) {
          Order order;
          if (!SampleOrderAttempt(world, candidates, type_choice[u][slot],
                                  day, slot, u, rng, &order)) {
            continue;
          }
          order.order_id = next_order_id++;
          delivery_minutes_sum += order.delivery_minutes();
          ++stats.orders;
          data.orders.push_back(order);

          if (config.generate_trajectories) {
            const Order& o = data.orders.back();
            Trajectory traj;
            traj.courier_id = o.courier_id;
            traj.order_id = o.order_id;
            const double leg_min = o.delivery_min - o.pickup_min;
            const int samples =
                std::max(2, static_cast<int>(leg_min * 60.0 / 20.0));
            for (int sidx = 0; sidx < samples; ++sidx) {
              const double f = sidx / static_cast<double>(samples - 1);
              TrajectoryPoint tp;
              tp.time_min = o.pickup_min + f * leg_min;
              tp.location = {
                  o.store_location.x +
                      f * (o.customer_location.x - o.store_location.x),
                  o.store_location.y +
                      f * (o.customer_location.y - o.store_location.y)};
              traj.points.push_back(tp);
            }
            data.trajectories.push_back(std::move(traj));
          }
        }
        // Record the applied scope factor for this region/period (averaged
        // later).
        data.scope_factor_per_period[static_cast<int>(period)] +=
            world.scope_factor(slot, u);
        ++scope_samples[static_cast<int>(period)];
      }
      stats.mean_delivery_minutes =
          stats.orders > 0 ? delivery_minutes_sum / stats.orders : 0.0;
      data.slot_stats.push_back(stats);
    }
  }
  for (int p = 0; p < kNumPeriods; ++p) {
    if (scope_samples[p] > 0) {
      data.scope_factor_per_period[p] /= scope_samples[p];
    }
  }
  static obs::Counter* orders_counter =
      obs::MetricsRegistry::Global().GetCounter("sim.orders_generated");
  orders_counter->Increment(data.orders.size());
  O2SR_LOG(DEBUG) << "simulated " << data.orders.size() << " orders across "
                  << num_regions << " regions (" << data.stores.size()
                  << " stores, " << num_types << " types)";
  return data;
}

}  // namespace o2sr::sim
