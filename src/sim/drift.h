#ifndef O2SR_SIM_DRIFT_H_
#define O2SR_SIM_DRIFT_H_

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/dataset.h"

namespace o2sr::sim {

// Drifting-city scenario: the world of a SimConfig evolved over discrete
// drift epochs, the data side of the continual-retraining pipeline
// (src/pipeline, DESIGN.md §11). Each epoch:
//
//   * stores close (Bernoulli per store) and new ones open (placed with the
//     same market-equilibrium weighting as the base world);
//   * cuisine popularity takes a multiplicative log-normal random walk, so
//     customer type preferences wander away from what a stale model learned;
//   * the demand slot profile shifts circularly by a fractional number of
//     slots, moving the rush hours.
//
// Everything is a pure function of (base config, drift config, epoch):
// epoch 0 IS the base world bit-for-bit, and regenerating epoch k on
// another machine — or after a crash — yields the identical dataset. That
// determinism is what lets the pipeline's kill-and-resume test demand
// bit-identical snapshots.

struct DriftConfig {
  // Per-epoch probability that an existing store closes.
  double store_close_rate = 0.05;
  // New stores per epoch, as a fraction of the base store count.
  double store_open_rate = 0.07;
  // Std-dev of the per-type log-normal popularity step.
  double popularity_walk_sigma = 0.30;
  // Std-dev (in slots) of the per-epoch circular demand-profile shift.
  double rush_shift_slots = 0.35;
  // Seed of the drift process; independent of SimConfig::seed so the same
  // base world can drift along different futures.
  uint64_t seed = 17;
};

// What a drift evolution actually did (cumulative up to the epoch).
struct DriftStats {
  int epoch = 0;
  int stores_closed = 0;
  int stores_opened = 0;
  int num_stores = 0;           // store count of the drifted world
  double demand_shift_slots = 0.0;  // net circular shift applied
  std::vector<double> type_popularity_scale;  // current walk position
};

// Circularly shifts a slot profile by a fractional `shift` (in slots,
// positive = later in the day) with linear interpolation. Exposed for
// tests.
std::vector<double> ShiftSlotProfile(const std::vector<double>& profile,
                                     double shift);

// The world `epoch` drift steps after `base`. Epoch 0 returns
// GenerateDataset(base) exactly; epoch k replays k evolution steps (each
// deterministic under drift.seed) and regenerates the dataset with the
// evolved store set, popularity walk and shifted demand profile, drawing
// its orders from the epoch's own per-(day, region) streams. `stats` may be
// null.
Dataset GenerateDriftedDataset(const SimConfig& base,
                               const DriftConfig& drift, int epoch,
                               DriftStats* stats = nullptr);

}  // namespace o2sr::sim

#endif  // O2SR_SIM_DRIFT_H_
