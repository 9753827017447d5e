#ifndef O2SR_SIM_CONFIG_H_
#define O2SR_SIM_CONFIG_H_

#include <cstdint>

namespace o2sr::sim {

// Which dataset the simulator mimics (paper §IV-A1).
enum class SimulationPreset {
  // Substitute for the proprietary Eleme platform data: dense interactions,
  // full courier dynamics.
  kSyntheticEleme,
  // Substitute for the open-data-derived "simulation dataset": customer
  // locations are randomly displaced, interactions are sparser and noisier,
  // so all methods score lower (Table IV vs Table III).
  kOpenData,
};

// Tunable parameters of the O2O-platform simulator. Defaults produce a
// medium city that trains the full model in seconds; tests use smaller
// values and the benchmark harness uses larger ones.
struct SimConfig {
  // Geometry (paper: Shanghai, 500 m x 500 m regions).
  double city_width_m = 10000.0;
  double city_height_m = 10000.0;
  double cell_m = 500.0;

  // Inventory.
  int num_store_types = 24;   // paper: 122
  int num_stores = 1200;      // paper: 39,465
  int num_couriers = 660;

  // Horizon (paper: one month).
  int num_days = 8;

  // Demand scale: expected orders per region per 2-hour slot at peak
  // activity in the densest region.
  double peak_orders_per_region_slot = 6.0;

  // Courier behaviour.
  double courier_speed_m_per_min = 260.0;  // ~15.6 km/h e-bike
  double food_prep_minutes = 8.0;
  // Minutes of queueing delay added per unit of courier overload.
  double queue_minutes_per_load = 14.0;

  // Delivery scope control (paper §II-B2): base radius and the pressure
  // scaling bounds applied by the platform per period.
  double base_scope_m = 3000.0;
  double min_scope_factor = 0.72;
  double max_scope_factor = 1.25;

  // Customer tolerance: acceptance probability is
  // sigmoid((tolerance_minutes - expected_delivery) / tolerance_softness).
  double tolerance_minutes = 46.0;
  double tolerance_softness = 9.0;

  // Strength of region-demographics influence on type preferences (0 = all
  // regions share the global per-period type popularity).
  double demographic_preference_weight = 1.6;

  // Lognormal sigma of the per-(region, type) idiosyncratic taste factor:
  // local preferences not explained by POI demographics. This is the signal
  // that customer-order history carries but static context features do not.
  double taste_noise_sigma = 0.5;

  // Preset-dependent noise.
  SimulationPreset preset = SimulationPreset::kSyntheticEleme;

  uint64_t seed = 42;
};

// FNV-1a fingerprint of every SimConfig field, in declaration order: a
// spill manifest and a serving snapshot each match only the config whose
// fields are bit-identical to the one that produced them.
uint64_t SimConfigHash(const SimConfig& config);

}  // namespace o2sr::sim

#endif  // O2SR_SIM_CONFIG_H_
