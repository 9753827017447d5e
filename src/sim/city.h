#ifndef O2SR_SIM_CITY_H_
#define O2SR_SIM_CITY_H_

#include <vector>

#include "common/rng.h"
#include "geo/grid.h"
#include "geo/poi.h"
#include "geo/road_network.h"
#include "sim/config.h"

namespace o2sr::sim {

// The static urban setting: region grid, population density gradient,
// POIs and the road network. Substitutes for the paper's Gaode POI data and
// OpenStreetMap extract.
struct CityModel {
  geo::Grid grid;
  // Relative residential/working population weight per region (sums to 1).
  std::vector<double> density;
  std::vector<geo::Poi> pois;
  geo::RoadNetwork roads;
  // Normalized POI composition per region: demographics[r][category] in
  // [0,1], rows sum to 1 (all-zero rows allowed for empty regions).
  std::vector<std::vector<double>> demographics;

  // Placeholder single-cell city, so holders like sim::World can be
  // default-constructed before GenerateCity fills them in.
  CityModel() : grid(1.0, 1.0, 1.0) {}
  explicit CityModel(const geo::Grid& g) : grid(g) {}
};

// Generates the synthetic city: a downtown-centered density gradient with
// suburban noise, POI placement whose category mix shifts from
// office/mall-heavy downtown to residential/factory-heavy outskirts, and a
// grid-plus-jitter road network.
CityModel GenerateCity(const SimConfig& config, Rng& rng);

}  // namespace o2sr::sim

#endif  // O2SR_SIM_CITY_H_
