#include "sim/drift.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "obs/log.h"
#include "sim/city.h"
#include "sim/period.h"
#include "sim/store_types.h"

namespace o2sr::sim {

namespace {

// Popularity multipliers are clamped so the walk cannot extinguish a
// cuisine entirely or let one dominate the city.
constexpr double kMinPopularityScale = 0.2;
constexpr double kMaxPopularityScale = 5.0;

uint64_t EpochSeed(const DriftConfig& drift, int epoch) {
  return drift.seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(epoch));
}

}  // namespace

std::vector<double> ShiftSlotProfile(const std::vector<double>& profile,
                                     double shift) {
  const int n = static_cast<int>(profile.size());
  if (n == 0) return profile;
  std::vector<double> out(n);
  for (int s = 0; s < n; ++s) {
    // out[s] samples the original profile at (s - shift), wrapped.
    double pos = std::fmod(s - shift, static_cast<double>(n));
    if (pos < 0.0) pos += n;
    const int lo = static_cast<int>(pos) % n;
    const int hi = (lo + 1) % n;
    const double frac = pos - std::floor(pos);
    out[s] = profile[lo] * (1.0 - frac) + profile[hi] * frac;
  }
  return out;
}

Dataset GenerateDriftedDataset(const SimConfig& base,
                               const DriftConfig& drift, int epoch,
                               DriftStats* stats) {
  O2SR_CHECK_GE(epoch, 0);
  DriftStats local;
  DriftStats& st = stats != nullptr ? *stats : local;
  st = DriftStats();
  st.epoch = epoch;
  if (epoch == 0) {
    Dataset data = GenerateDataset(base);
    st.num_stores = static_cast<int>(data.stores.size());
    st.type_popularity_scale.assign(data.num_types(), 1.0);
    return data;
  }

  // Rebuild the epoch-0 world pieces exactly as GenerateDataset draws them
  // (same RNG consumption order: city, catalog, stores).
  Rng base_rng(base.seed);
  const CityModel city = GenerateCity(base, base_rng);
  const std::vector<StoreType> catalog =
      BuildTypeCatalog(base.num_store_types, base_rng);
  std::vector<Store> stores =
      GenerateStores(base, city, catalog, base_rng);

  const int num_types = static_cast<int>(catalog.size());
  std::vector<double> scale(num_types, 1.0);
  double total_shift = 0.0;
  const int opens_per_epoch = std::max(
      0, static_cast<int>(std::lround(drift.store_open_rate *
                                      base.num_stores)));

  for (int e = 1; e <= epoch; ++e) {
    // Each epoch's step is drawn from its own stream, so the world at epoch
    // k never depends on how (or whether) earlier epochs were materialized.
    Rng rng(EpochSeed(drift, e));

    // Closures.
    std::vector<Store> survivors;
    survivors.reserve(stores.size());
    for (const Store& s : stores) {
      if (rng.Bernoulli(drift.store_close_rate)) {
        ++st.stores_closed;
      } else {
        survivors.push_back(s);
      }
    }
    stores.swap(survivors);

    // Openings: reuse the market-equilibrium placement of the base
    // generator for a batch of new stores, with an evolved popularity mix.
    if (opens_per_epoch > 0) {
      SimConfig open_cfg = base;
      open_cfg.num_stores = opens_per_epoch;
      std::vector<StoreType> current_catalog = catalog;
      for (int t = 0; t < num_types; ++t) {
        current_catalog[t].popularity *= scale[t];
      }
      std::vector<Store> opened =
          GenerateStores(open_cfg, city, current_catalog, rng);
      st.stores_opened += static_cast<int>(opened.size());
      for (Store& s : opened) stores.push_back(s);
    }

    // Popularity walk and rush-hour shift.
    for (int t = 0; t < num_types; ++t) {
      scale[t] = Clamp(
          scale[t] * std::exp(rng.Normal(0.0, drift.popularity_walk_sigma)),
          kMinPopularityScale, kMaxPopularityScale);
    }
    total_shift += rng.Normal(0.0, drift.rush_shift_slots);
  }

  // Downstream consumers index per-store tables by id, so the drifted set
  // is reindexed contiguously; store identity across epochs is carried by
  // location/type/quality, not by id.
  for (size_t si = 0; si < stores.size(); ++si) {
    stores[si].id = static_cast<int>(si);
  }

  WorldOverrides overrides;
  overrides.use_stores = true;
  overrides.stores = std::move(stores);
  overrides.demand_slot_profile =
      ShiftSlotProfile(DefaultDemandSlotProfile(), total_shift);
  overrides.type_popularity_scale = scale;
  // Epoch 0 draws from config.seed; every later epoch from its own streams.
  overrides.order_seed = EpochSeed(drift, epoch);

  st.num_stores = static_cast<int>(overrides.stores.size());
  st.demand_shift_slots = total_shift;
  st.type_popularity_scale = scale;
  O2SR_LOG(DEBUG) << "drift epoch " << epoch << ": " << st.num_stores
                  << " stores (" << st.stores_closed << " closed, "
                  << st.stores_opened << " opened), demand shift "
                  << total_shift << " slots";
  return GenerateDataset(base, overrides);
}

}  // namespace o2sr::sim
