#ifndef O2SR_SIM_WORLD_H_
#define O2SR_SIM_WORLD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/dataset.h"

namespace o2sr::sim {

// The static part of a simulated city: everything derived from the config
// before the first order is drawn. Both generators build it once, then
// draw the orders per (day, region) with DrawRegionDay: GenerateDataset
// collects every region in RAM, the streaming generator (sim/stream.h)
// spills one block of regions at a time.
struct World {
  SimConfig config;
  // Base seed of the per-(day, region) order streams: config.seed unless
  // WorldOverrides::order_seed replaces it.
  uint64_t order_seed = 0;
  CityModel city;
  std::vector<StoreType> type_catalog;
  std::vector<Store> stores;
  // Resolved demand profile (overrides applied), size kSlotsPerDay.
  std::vector<double> demand_slot_profile;
  // Customer type-choice weights per (region, slot): type_weights[u][slot][t].
  std::vector<std::vector<std::vector<double>>> type_weights;
  // Expected demand per (slot, region).
  std::vector<std::vector<double>> expected_demand;
  // Courier allocation per (slot, region), constant across days.
  std::vector<std::vector<double>> courier_alloc;
  // Courier ids homed per region.
  std::vector<std::vector<int>> courier_pool;
  // Delivery-scope radius per (slot, region): base_scope_m *
  // scope_factor(slot, region), built once so the order draw computes no
  // sqrt per candidate.
  std::vector<std::vector<double>> scope_m;

  int num_regions() const { return city.grid.NumRegions(); }
  int num_types() const { return static_cast<int>(type_catalog.size()); }

  // Load per courier of a region at a slot (expected orders / capacity).
  double congestion(int slot, int region) const;
  // Delivery-scope pressure control (§II-B2).
  double scope_factor(int slot, int region) const;
};

// Fraction of the courier fleet on shift per 2-hour slot (§II-B1).
const std::vector<double>& SupplySlotProfile();

// Builds the world, drawing from `rng` in this order: city -> catalog ->
// stores -> taste -> courier allocation -> courier pool.
World BuildWorld(const SimConfig& config, const WorldOverrides& overrides,
                 Rng& rng);

// An orders-free Dataset over the world (config, city, catalog, stores,
// courier allocation). Graph construction and region features consume only
// these plus region-level aggregates (features::OrderStats), so this is
// all the "dataset" the out-of-core path ever materializes.
Dataset WorldDataset(const World& world);

// Candidate stores per (region, type) for regions [region_begin,
// region_end), each list ordered by ascending store index, so a region's
// draws see the same weight vectors under any blocking. Everything the
// draw reads per candidate is fixed per (region, store), so it is computed
// here once instead of on every attempt: the store's region (for the scope
// check against World::scope_m) and its draw weight from this region,
// quality * exp(-distance_m / 2400). 24 bytes per candidate.
struct TypedCandidate {
  int store_index = 0;
  int store_region = 0;
  double distance_m = 0.0;
  double weight = 0.0;
};
struct CandidateIndex {
  int region_begin = 0;
  int region_end = 0;
  // by_region_type[u - region_begin][t]
  std::vector<std::vector<std::vector<TypedCandidate>>> by_region_type;
};
// Runs as two parallel passes over the regions on exec::CurrentPool():
// count the candidates of every (region, type), allocate every list at its
// exact size on the calling thread, then fill. Lists grown by the workers
// would land in their glibc arenas and raise peak RSS (DESIGN.md §8).
CandidateIndex BuildCandidates(const World& world, int region_begin,
                               int region_end);

// Seed of the independent RNG stream of (epoch, region): two chained
// SplitMix64 rounds over the base seed. Block-size independent by
// construction.
uint64_t ShardSeed(uint64_t seed, int epoch, int region);

// The one order draw of both generators. Seeds the stream of (day, region)
// with ShardSeed(world.order_seed, day, region); then, per slot ascending,
// draws a jittered Poisson attempt count and samples each attempt. Calls
// `emit` once per attempt that converts, with order_id left 0 for the
// caller to assign, and returns the slots that drew at least one attempt
// as a bit mask (bit s = slot s). The orders depend only on (order_seed,
// day, region) and the world, never on the blocking, the lane or any other
// region, so callers run regions as a ParallelFor and append their buffers
// in region order. `index` must cover `region`.
uint32_t DrawRegionDay(const World& world, const CandidateIndex& index,
                       int day, int region,
                       const std::function<void(const Order&)>& emit);

// The paper's workload: ~39.5k stores in a 32 km x 32 km city (4096
// regions), 122 store types, one month of orders (>= 23.6M). Only the
// streaming generator should run this preset — the in-RAM order vector
// alone would be ~4 GB.
SimConfig PaperScaleConfig();

}  // namespace o2sr::sim

#endif  // O2SR_SIM_WORLD_H_
