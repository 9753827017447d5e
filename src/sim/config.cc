#include "sim/config.h"

#include <string>

#include "nn/serialize.h"

namespace o2sr::sim {

uint64_t SimConfigHash(const SimConfig& c) {
  std::string bytes;
  nn::ByteWriter w(&bytes);
  w.Scalar<double>(c.city_width_m);
  w.Scalar<double>(c.city_height_m);
  w.Scalar<double>(c.cell_m);
  w.Scalar<int32_t>(c.num_store_types);
  w.Scalar<int32_t>(c.num_stores);
  w.Scalar<int32_t>(c.num_couriers);
  w.Scalar<int32_t>(c.num_days);
  w.Scalar<double>(c.peak_orders_per_region_slot);
  w.Scalar<double>(c.courier_speed_m_per_min);
  w.Scalar<double>(c.food_prep_minutes);
  w.Scalar<double>(c.queue_minutes_per_load);
  w.Scalar<double>(c.base_scope_m);
  w.Scalar<double>(c.min_scope_factor);
  w.Scalar<double>(c.max_scope_factor);
  w.Scalar<double>(c.tolerance_minutes);
  w.Scalar<double>(c.tolerance_softness);
  w.Scalar<double>(c.demographic_preference_weight);
  w.Scalar<double>(c.taste_noise_sigma);
  w.Scalar<int32_t>(static_cast<int32_t>(c.preset));
  w.Scalar<uint64_t>(c.seed);
  return nn::Fnv1a(bytes);
}

}  // namespace o2sr::sim
