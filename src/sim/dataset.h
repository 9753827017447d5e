#ifndef O2SR_SIM_DATASET_H_
#define O2SR_SIM_DATASET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geo/geometry.h"
#include "geo/grid.h"
#include "sim/city.h"
#include "sim/config.h"
#include "sim/period.h"
#include "sim/store_types.h"

namespace o2sr::sim {

// A store on the platform.
struct Store {
  int id = 0;
  int type = 0;
  geo::Point location;
  geo::RegionId region = 0;
  // Intrinsic attractiveness (menu, price, ratings), lognormal-ish around 1.
  double quality = 1.0;
};

// One delivered order (mirrors Table I of the paper).
struct Order {
  int order_id = 0;
  int store_id = 0;
  int courier_id = 0;
  int type = 0;
  geo::RegionId store_region = 0;
  geo::RegionId customer_region = 0;
  geo::Point store_location;
  geo::Point customer_location;
  // Timestamps in minutes since simulation start.
  double creation_min = 0.0;
  double acceptance_min = 0.0;
  double pickup_min = 0.0;
  double delivery_min = 0.0;
  double distance_m = 0.0;  // store-to-customer straight-line distance
  int day = 0;
  int slot = 0;  // 2-hour slot within the day, [0, 12)

  Period period() const { return PeriodOfSlot(slot); }
  double delivery_minutes() const { return delivery_min - creation_min; }
};

// Per-slot operational statistics the motivation figures need.
struct SlotStats {
  int day = 0;
  int slot = 0;
  int active_couriers = 0;
  int orders = 0;
  // City-level mean actual delivery minutes in this slot (0 if no orders).
  double mean_delivery_minutes = 0.0;
};

// The complete synthetic dataset: environment + platform records.
struct Dataset {
  SimConfig config;
  CityModel city;
  std::vector<StoreType> type_catalog;
  std::vector<Store> stores;
  // In canonical (day, region, slot, attempt) order, the order in which
  // sim::DatasetReader streams the same config's shards back.
  std::vector<Order> orders;
  // One per (day, slot), day-major.
  std::vector<SlotStats> slot_stats;
  // Delivery-scope radius factor the platform applies per period (pressure
  // control), averaged over the (day, slot, region) cells that drew at
  // least one order attempt; recorded for Fig. 3 style analyses.
  std::vector<double> scope_factor_per_period;
  // Courier allocation (fractional couriers on duty) per 2-hour slot and
  // region: courier_alloc_slot_region[slot][region]. Constant across days.
  std::vector<std::vector<double>> courier_alloc_slot_region;

  explicit Dataset(const SimConfig& cfg, CityModel c)
      : config(cfg), city(std::move(c)) {}

  int num_regions() const { return city.grid.NumRegions(); }
  int num_types() const { return static_cast<int>(type_catalog.size()); }
};

// Runs the full simulation: city -> stores -> courier/order dynamics.
// The orders are those sim::StreamGenerate spills for the same config
// (both call DrawRegionDay, sim/world.h), collected in RAM; the regions of
// a day run as a ParallelFor on exec::CurrentPool(). Deterministic for a
// given config (seed included) and bit-identical at any lane count.
Dataset GenerateDataset(const SimConfig& config);

// The built-in city-wide demand activity per 2-hour slot (mean ~1, noon and
// evening rush peaks). Exposed so drift scenarios (sim/drift.h) can shift it
// instead of re-inventing it.
const std::vector<double>& DefaultDemandSlotProfile();

// Drift seam: pieces of the world a scenario may replace while everything
// else (city, catalog, courier dynamics, the world's RNG stream) stays
// exactly as GenerateDataset would produce it. Empty/default members mean
// "no override", so a default-constructed WorldOverrides reproduces
// GenerateDataset(config) bit-for-bit.
struct WorldOverrides {
  // Replaces the generated store set. Ids must be contiguous 0..n-1 (order
  // records index per-store tables by id).
  bool use_stores = false;
  std::vector<Store> stores;
  // Replaces DefaultDemandSlotProfile(); size kSlotsPerDay when non-empty.
  std::vector<double> demand_slot_profile;
  // Per-type multiplier on StoreType::popularity in the customers'
  // type-choice weights; size num_store_types when non-empty.
  std::vector<double> type_popularity_scale;
  // Replaces config.seed as the base seed of the per-(day, region) order
  // streams (World::order_seed), so a drift epoch draws its own orders.
  std::optional<uint64_t> order_seed;
};

Dataset GenerateDataset(const SimConfig& config,
                        const WorldOverrides& overrides);

// Generates store placements for a city (exposed for tests and for the
// drift scenario, which reuses the placement weighting for newly opened
// stores).
std::vector<Store> GenerateStores(const SimConfig& config,
                                  const CityModel& city,
                                  const std::vector<StoreType>& catalog,
                                  Rng& rng);

}  // namespace o2sr::sim

#endif  // O2SR_SIM_DATASET_H_
