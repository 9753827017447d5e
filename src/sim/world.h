#ifndef O2SR_SIM_WORLD_H_
#define O2SR_SIM_WORLD_H_

#include <vector>

#include "sim/dataset.h"

namespace o2sr::sim {

// The static part of a simulated city: everything GenerateDataset derives
// from the config before the first order is drawn. Extracted so the
// streaming generator (sim/stream.h) can build the world once and then
// emit orders block-by-block with bounded memory, while GenerateDataset
// keeps producing the exact same in-RAM dataset it always has (BuildWorld
// consumes the RNG in the same order the monolithic generator did).
struct World {
  SimConfig config;
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

  int num_regions() const { return city.grid.NumRegions(); }
  int num_types() const { return static_cast<int>(type_catalog.size()); }

  // Load per courier of a region at a slot (expected orders / capacity).
  double congestion(int slot, int region) const;
  // Delivery-scope pressure control (§II-B2).
  double scope_factor(int slot, int region) const;
};

// Fraction of the courier fleet on shift per 2-hour slot (§II-B1).
const std::vector<double>& SupplySlotProfile();

// Builds the world, drawing from `rng` exactly as GenerateDataset does
// before its order loop: city -> catalog -> stores -> taste ->
// courier allocation -> courier pool.
World BuildWorld(const SimConfig& config, const WorldOverrides& overrides,
                 Rng& rng);

// An orders-free Dataset over the world (config, city, catalog, stores,
// courier allocation). Graph construction and region features consume only
// these plus region-level aggregates (features::OrderStats), so this is
// all the "dataset" the out-of-core path ever materializes.
Dataset WorldDataset(const World& world);

// Candidate stores per (region, type) for regions [region_begin,
// region_end), each list ordered by ascending store index (the same order
// the monolithic generator scans its mixed per-region list in, so
// Categorical draws see identical weight vectors).
struct TypedCandidate {
  int store_index = 0;
  double distance_m = 0.0;
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

// The customer type-choice tables of `region`, one per slot, over
// world.type_weights[region]. The generators build them per region rather
// than World holding all of them (~24 MB at a quarter of paper scale).
std::vector<CategoricalTable> TypeChoiceTables(const World& world, int region);

// Draws one customer order attempt in `region` at (day, slot), consuming
// `rng` exactly as the monolithic generator's attempt body does.
// `type_choice` is TypeChoiceTables(world, region)[slot]. Returns true and
// fills `order` (order_id left 0 for the caller to assign) when the attempt
// converts; false when the customer walks away.
bool SampleOrderAttempt(const World& world, const CandidateIndex& index,
                        const CategoricalTable& type_choice, int day,
                        int slot, int region, Rng& rng, Order* order);

// The paper's workload: ~39.5k stores in a 32 km x 32 km city (4096
// regions), 122 store types, one month of orders (>= 23.6M). Only the
// streaming generator should run this preset — the in-RAM order vector
// alone would be ~4 GB.
SimConfig PaperScaleConfig();

}  // namespace o2sr::sim

#endif  // O2SR_SIM_WORLD_H_
