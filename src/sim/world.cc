#include "sim/world.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace o2sr::sim {

namespace {

double SigmoidAcceptance(double expected_minutes, const SimConfig& cfg) {
  const double z =
      (cfg.tolerance_minutes - expected_minutes) / cfg.tolerance_softness;
  return 1.0 / (1.0 + std::exp(-z));
}

}  // namespace

// Fraction of the courier fleet on shift per slot. Supply grows at rush
// hours but sub-linearly w.r.t. demand, so the supply-demand ratio dips at
// the two rush periods (the core observation of §II-B1).
const std::vector<double>& SupplySlotProfile() {
  static const std::vector<double> kProfile = {
      0.30, 0.18, 0.15, 0.50, 0.80, 1.00, 0.95, 0.80, 1.00, 0.95, 0.70, 0.45};
  return kProfile;
}

// Congestion (load per courier) of a region at a slot: expected orders
// divided by capacity. ~5 deliveries per courier per 2-hour slot.
double World::congestion(int slot, int region) const {
  constexpr double kOrdersPerCourierSlot = 5.0;
  const double couriers = std::max(courier_alloc[slot][region], 0.05);
  return expected_demand[slot][region] / (kOrdersPerCourierSlot * couriers);
}

// Delivery-scope pressure control (§II-B2): the platform shrinks a store
// region's scope when its couriers are overloaded.
double World::scope_factor(int slot, int region) const {
  const double load = std::max(congestion(slot, region), 0.3);
  return Clamp(1.0 / std::sqrt(load), config.min_scope_factor,
               config.max_scope_factor);
}

World BuildWorld(const SimConfig& config, const WorldOverrides& overrides,
                 Rng& rng) {
  World world;
  world.config = config;
  world.order_seed = overrides.order_seed.value_or(config.seed);
  world.city = [&] {
    O2SR_TRACE_SCOPE("sim.city");
    return GenerateCity(config, rng);
  }();
  const int num_regions = world.city.grid.NumRegions();

  {
    O2SR_TRACE_SCOPE("sim.stores");
    world.type_catalog = BuildTypeCatalog(config.num_store_types, rng);
    // The generator always runs — even when its result is replaced — so the
    // RNG stream downstream of this point is identical with and without
    // overrides: a drifted world differs from the base world only by the
    // overridden content, never by phantom reshuffling.
    world.stores = GenerateStores(config, world.city, world.type_catalog, rng);
    if (overrides.use_stores) {
      world.stores = overrides.stores;
      for (size_t si = 0; si < world.stores.size(); ++si) {
        O2SR_CHECK_EQ(world.stores[si].id, static_cast<int>(si));
      }
    }
  }
  const int num_types = world.num_types();

  world.demand_slot_profile = overrides.demand_slot_profile.empty()
                                  ? DefaultDemandSlotProfile()
                                  : overrides.demand_slot_profile;
  O2SR_CHECK_EQ(world.demand_slot_profile.size(),
                static_cast<size_t>(kSlotsPerDay));
  std::vector<double> popularity_scale = overrides.type_popularity_scale;
  if (popularity_scale.empty()) {
    popularity_scale.assign(num_types, 1.0);
  }
  O2SR_CHECK_EQ(popularity_scale.size(), static_cast<size_t>(num_types));

  // Type-choice weights per (region, slot): global per-period popularity
  // modulated by region demographics (the customer-preference signal of
  // §II-C).
  // Idiosyncratic local taste per (region, type): stable over time, not
  // derivable from POI features — observable only through order history.
  std::vector<std::vector<double>> taste(num_regions,
                                         std::vector<double>(num_types, 1.0));
  if (config.taste_noise_sigma > 0.0) {
    for (int u = 0; u < num_regions; ++u) {
      for (int t = 0; t < num_types; ++t) {
        taste[u][t] = std::exp(rng.Normal(0.0, config.taste_noise_sigma));
      }
    }
  }

  world.type_weights.assign(num_regions,
                            std::vector<std::vector<double>>(kSlotsPerDay));
  for (int u = 0; u < num_regions; ++u) {
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      auto& w = world.type_weights[u][slot];
      w.resize(num_types);
      for (int t = 0; t < num_types; ++t) {
        const StoreType& type = world.type_catalog[t];
        double demo = 0.0;
        for (int c = 0; c < geo::kNumPoiCategories; ++c) {
          demo += type.poi_affinity[c] * world.city.demographics[u][c];
        }
        w[t] = type.popularity * popularity_scale[t] *
               type.slot_activity[slot] * taste[u][t] *
               (1.0 + config.demographic_preference_weight * demo) +
               1e-9;
      }
    }
  }

  // Expected demand per (region, slot), used for courier allocation and
  // congestion. density*num_regions ~ 1 for an average region.
  world.expected_demand.assign(kSlotsPerDay,
                               std::vector<double>(num_regions));
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    for (int u = 0; u < num_regions; ++u) {
      world.expected_demand[slot][u] = config.peak_orders_per_region_slot *
                                       world.city.density[u] * num_regions *
                                       world.demand_slot_profile[slot];
    }
  }

  // Courier allocation per (slot, region): the fleet fraction on shift is
  // distributed across regions proportionally to expected_demand^0.85
  // (imperfect rebalancing), with per-slot noise drawn once.
  world.courier_alloc.assign(kSlotsPerDay, std::vector<double>(num_regions));
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    const double active = config.num_couriers * SupplySlotProfile()[slot];
    std::vector<double> w(num_regions);
    double sum = 0.0;
    for (int u = 0; u < num_regions; ++u) {
      w[u] = std::pow(world.expected_demand[slot][u] + 0.05, 0.85) *
             rng.Uniform(0.6, 1.4);
      sum += w[u];
    }
    for (int u = 0; u < num_regions; ++u) {
      world.courier_alloc[slot][u] = active * w[u] / sum;
    }
  }

  world.scope_m.assign(kSlotsPerDay, std::vector<double>(num_regions));
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    for (int u = 0; u < num_regions; ++u) {
      world.scope_m[slot][u] =
          config.base_scope_m * world.scope_factor(slot, u);
    }
  }

  // Courier ids homed per region: courier k belongs to the region where it
  // mostly works; ids are dealt out proportionally to allocation at noon.
  world.courier_pool.assign(num_regions, {});
  {
    const CategoricalTable noon =
        MakeCategoricalTable(world.courier_alloc[5]);
    for (int k = 0; k < config.num_couriers; ++k) {
      world.courier_pool[rng.Categorical(noon)].push_back(k);
    }
  }

  return world;
}

Dataset WorldDataset(const World& world) {
  Dataset data(world.config, world.city);
  data.type_catalog = world.type_catalog;
  data.stores = world.stores;
  data.courier_alloc_slot_region = world.courier_alloc;
  return data;
}

CandidateIndex BuildCandidates(const World& world, int region_begin,
                               int region_end) {
  O2SR_TRACE_SCOPE("sim.build_candidates");
  O2SR_CHECK_LE(0, region_begin);
  O2SR_CHECK_LE(region_begin, region_end);
  O2SR_CHECK_LE(region_end, world.num_regions());
  const double max_scope_m =
      world.config.base_scope_m * world.config.max_scope_factor;
  const int num_types = world.num_types();
  const int64_t num_regions = region_end - region_begin;
  // Calls visit(store, distance) for every store within reach of region
  // region_begin + i, in ascending store index.
  const auto for_each_in_scope = [&](int64_t i, const auto& visit) {
    const geo::Point uc = world.city.grid.Center(region_begin + i);
    for (size_t si = 0; si < world.stores.size(); ++si) {
      const double d = geo::EuclideanMeters(uc, world.stores[si].location);
      if (d <= max_scope_m) visit(si, d);
    }
  };
  exec::ThreadPool& pool = exec::CurrentPool();

  std::vector<size_t> counts(num_regions * num_types, 0);
  pool.ParallelFor(
      num_regions, 1,
      [&](int64_t i) {
        size_t* by_type = &counts[i * num_types];
        for_each_in_scope(i, [&](size_t si, double) {
          ++by_type[world.stores[si].type];
        });
      },
      nullptr, "sim.count_candidates");

  CandidateIndex index;
  index.region_begin = region_begin;
  index.region_end = region_end;
  index.by_region_type.resize(num_regions);
  for (int64_t i = 0; i < num_regions; ++i) {
    auto& by_type = index.by_region_type[i];
    by_type.resize(num_types);
    for (int t = 0; t < num_types; ++t) {
      by_type[t].reserve(counts[i * num_types + t]);
    }
  }

  // Every list already has its exact capacity: the fill allocates nothing.
  pool.ParallelFor(
      num_regions, 1,
      [&](int64_t i) {
        auto& by_type = index.by_region_type[i];
        for_each_in_scope(i, [&](size_t si, double d) {
          const Store& store = world.stores[si];
          by_type[store.type].push_back(
              {static_cast<int>(si), store.region, d,
               store.quality * std::exp(-d / 2400.0)});
        });
      },
      nullptr, "sim.fill_candidates");
  return index;
}

namespace {

// The customer type-choice tables of `region`, one per slot, over
// world.type_weights[region]. Built per region draw rather than held by
// World for every region (~24 MB at a quarter of paper scale).
std::vector<CategoricalTable> TypeChoiceTables(const World& world,
                                               int region) {
  std::vector<CategoricalTable> tables;
  tables.reserve(kSlotsPerDay);
  for (const std::vector<double>& weights : world.type_weights[region]) {
    tables.push_back(MakeCategoricalTable(weights));
  }
  return tables;
}

// Draws one customer order attempt in `region` at (day, slot) from `rng`.
// `type_choice` is TypeChoiceTables(world, region)[slot]; `weights` and
// `cand_idx` are scratch buffers the caller reuses across attempts.
// Returns true and fills `order` (order_id 0) when the attempt converts;
// false when the customer walks away.
bool SampleOrderAttempt(const World& world, const CandidateIndex& index,
                        const CategoricalTable& type_choice, int day,
                        int slot, int region, Rng& rng,
                        std::vector<double>& weights,
                        std::vector<int>& cand_idx, Order* order) {
  const SimConfig& config = world.config;
  const bool open_data = config.preset == SimulationPreset::kOpenData;
  const double keep_prob = open_data ? 0.45 : 1.0;
  const double dt_noise_sigma = open_data ? 0.30 : 0.15;
  const int u = region;
  O2SR_CHECK_LE(index.region_begin, u);
  O2SR_CHECK_LT(u, index.region_end);

  // 1. Customer picks a cuisine type by regional preference.
  const int type = rng.Categorical(type_choice);

  // 2. Candidate stores of the type within the store's current delivery
  //    scope; preference decays with distance and expected delivery time.
  const std::vector<TypedCandidate>& typed =
      index.by_region_type[u - index.region_begin][type];
  double best_weight_sum = 0.0;
  weights.clear();
  cand_idx.clear();
  const std::vector<double>& scope_m = world.scope_m[slot];
  for (size_t ci = 0; ci < typed.size(); ++ci) {
    const TypedCandidate& cand = typed[ci];
    if (cand.distance_m > scope_m[cand.store_region]) continue;
    weights.push_back(cand.weight);
    cand_idx.push_back(static_cast<int>(ci));
    best_weight_sum += cand.weight;
  }
  if (weights.empty() || best_weight_sum <= 0.0) return false;
  const TypedCandidate& cand = typed[cand_idx[rng.Categorical(weights)]];
  const Store& store = world.stores[cand.store_index];

  // 3. Expected delivery time under current courier capacity at the
  //    store's region.
  const double load = world.congestion(slot, store.region);
  const double prep =
      config.food_prep_minutes * world.type_catalog[type].prep_factor;
  const double pickup_leg_m = rng.Exponential(1.0 / 600.0);
  const double travel_min =
      (cand.distance_m + pickup_leg_m) / config.courier_speed_m_per_min;
  const double queue_min = std::min(
      config.queue_minutes_per_load * std::max(0.0, load - 0.8), 35.0);
  const double expected_dt = prep + travel_min + queue_min;

  // 4. Customer tolerance: long expected waits lose the order (§II-B3) —
  //    this is how capacity causally shapes demand.
  if (!rng.Bernoulli(SigmoidAcceptance(expected_dt, config))) return false;
  if (!rng.Bernoulli(keep_prob)) return false;

  order->order_id = 0;
  order->store_id = store.id;
  order->type = type;
  order->store_region = store.region;
  order->store_location = store.location;
  // Customer location: uniform within the region. The open-data preset
  // reconstructs customer locations from distances and "historical
  // transaction patterns" (paper §IV-A1); we model that reconstruction
  // error as a Gaussian jitter of ~0.75 cells, which misassigns a sizable
  // share of customers to neighboring regions without severing the
  // locality the reconstruction preserves.
  const geo::Point region_center = world.city.grid.Center(u);
  geo::Point cust = {
      Clamp(region_center.x + rng.Uniform(-0.5, 0.5) * config.cell_m, 0.0,
            config.city_width_m - 1.0),
      Clamp(region_center.y + rng.Uniform(-0.5, 0.5) * config.cell_m, 0.0,
            config.city_height_m - 1.0)};
  if (open_data) {
    cust = {Clamp(cust.x + rng.Normal(0.0, 0.75 * config.cell_m), 0.0,
                  config.city_width_m - 1.0),
            Clamp(cust.y + rng.Normal(0.0, 0.75 * config.cell_m), 0.0,
                  config.city_height_m - 1.0)};
  }
  order->customer_location = cust;
  order->customer_region = world.city.grid.RegionOf(cust);
  order->distance_m =
      geo::EuclideanMeters(store.location, order->customer_location);
  order->day = day;
  order->slot = slot;

  // 5. Timestamps. The realized delivery time is the expected time with
  //    lognormal noise; queueing happens while waiting for a courier
  //    (between acceptance and pickup).
  const double noise = std::exp(rng.Normal(0.0, dt_noise_sigma));
  const double actual_dt = expected_dt * noise;
  order->creation_min = (day * 24.0 * 60.0) + slot * kSlotMinutes +
                        rng.Uniform(0.0, kSlotMinutes);
  order->acceptance_min = order->creation_min + rng.Uniform(0.3, 2.0);
  const double travel_share = travel_min / std::max(expected_dt, 1.0);
  order->delivery_min = order->creation_min + actual_dt;
  order->pickup_min = order->delivery_min - actual_dt * travel_share * 0.85;
  if (order->pickup_min < order->acceptance_min) {
    order->pickup_min = order->acceptance_min + 0.5;
  }
  if (order->delivery_min <= order->pickup_min) {
    order->delivery_min = order->pickup_min + 1.0;
  }

  // 6. Courier assignment from the store region's pool (fallback: any
  //    courier).
  const auto& pool = world.courier_pool[store.region];
  order->courier_id =
      pool.empty()
          ? rng.UniformInt(0, config.num_couriers - 1)
          : pool[rng.UniformInt(0, static_cast<int>(pool.size()) - 1)];
  return true;
}

}  // namespace

uint64_t ShardSeed(uint64_t seed, int epoch, int region) {
  const uint64_t z = SplitMix64(seed ^ static_cast<uint64_t>(epoch));
  return SplitMix64(z ^ static_cast<uint64_t>(region));
}

uint32_t DrawRegionDay(const World& world, const CandidateIndex& index,
                       int day, int region,
                       const std::function<void(const Order&)>& emit) {
  static_assert(kSlotsPerDay <= 32, "slot mask is 32 bits");
  Rng rng(ShardSeed(world.order_seed, day, region));
  const std::vector<CategoricalTable> type_choice =
      TypeChoiceTables(world, region);
  uint32_t slots_with_attempts = 0;
  std::vector<double> weights;
  std::vector<int> cand_idx;
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    const double jitter = rng.Uniform(0.85, 1.15);
    const int attempts =
        rng.Poisson(world.expected_demand[slot][region] * jitter);
    if (attempts > 0) slots_with_attempts |= 1u << slot;
    for (int k = 0; k < attempts; ++k) {
      Order order;
      if (SampleOrderAttempt(world, index, type_choice[slot], day, slot,
                             region, rng, weights, cand_idx, &order)) {
        emit(order);
      }
    }
  }
  return slots_with_attempts;
}

SimConfig PaperScaleConfig() {
  SimConfig cfg;
  cfg.city_width_m = 32000.0;  // 64x64 grid -> 4096 regions
  cfg.city_height_m = 32000.0;
  cfg.num_store_types = 122;
  cfg.num_stores = 39465;
  cfg.num_couriers = 30000;
  cfg.num_days = 30;
  // Tuned so a month clears the paper's 23.6M orders after tolerance
  // losses (bench_scale asserts the floor).
  cfg.peak_orders_per_region_slot = 18.0;
  cfg.seed = 2022;
  return cfg;
}

}  // namespace o2sr::sim
