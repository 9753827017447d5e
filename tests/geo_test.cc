#include <cmath>

#include <gtest/gtest.h>

#include "geo/geometry.h"
#include "geo/grid.h"
#include "geo/poi.h"
#include "geo/road_network.h"

namespace o2sr::geo {
namespace {

TEST(GridTest, DimensionsAndRegionCount) {
  Grid grid(10000.0, 5000.0, 500.0);
  EXPECT_EQ(grid.cols(), 20);
  EXPECT_EQ(grid.rows(), 10);
  EXPECT_EQ(grid.NumRegions(), 200);
}

TEST(GridTest, NonDivisibleSizeRoundsUp) {
  Grid grid(1100.0, 900.0, 500.0);
  EXPECT_EQ(grid.cols(), 3);
  EXPECT_EQ(grid.rows(), 2);
}

TEST(GridTest, RegionOfAndCenterAreConsistent) {
  Grid grid(10000.0, 10000.0, 500.0);
  for (RegionId r : {0, 7, 150, grid.NumRegions() - 1}) {
    EXPECT_EQ(grid.RegionOf(grid.Center(r)), r);
  }
}

TEST(GridTest, OutOfBoundsPointsClampToBorder) {
  Grid grid(1000.0, 1000.0, 500.0);
  EXPECT_EQ(grid.RegionOf({-50.0, -50.0}), 0);
  EXPECT_EQ(grid.RegionOf({5000.0, 5000.0}), grid.NumRegions() - 1);
}

TEST(GridTest, RowColRoundTrip) {
  Grid grid(3000.0, 2000.0, 500.0);
  const RegionId r = 2 * grid.cols() + 3;
  EXPECT_EQ(grid.RowOf(r), 2);
  EXPECT_EQ(grid.ColOf(r), 3);
}

TEST(GridTest, DistanceBetweenAdjacentCellsIsCellSize) {
  Grid grid(3000.0, 3000.0, 500.0);
  EXPECT_DOUBLE_EQ(grid.Distance(0, 1), 500.0);
  EXPECT_DOUBLE_EQ(grid.Distance(0, grid.cols()), 500.0);
  EXPECT_NEAR(grid.Distance(0, grid.cols() + 1), 500.0 * std::sqrt(2.0),
              1e-9);
}

TEST(GridTest, RegionsWithinRadius) {
  Grid grid(5000.0, 5000.0, 500.0);
  const RegionId center = grid.RegionOf({2500.0, 2500.0});
  // 800 m radius covers the 4 orthogonal neighbors (500 m) and the 4
  // diagonal neighbors (707 m) = 8 regions.
  const auto within = grid.RegionsWithin(center, 800.0);
  EXPECT_EQ(within.size(), 8u);
  for (RegionId r : within) {
    EXPECT_LE(grid.Distance(center, r), 800.0);
    EXPECT_NE(r, center);
  }
}

TEST(GridTest, RegionsWithinSmallRadiusIsEmpty) {
  Grid grid(5000.0, 5000.0, 500.0);
  EXPECT_TRUE(grid.RegionsWithin(0, 100.0).empty());
}

TEST(GridTest, CenterDistanceNormBounds) {
  Grid grid(10000.0, 10000.0, 500.0);
  const RegionId middle = grid.RegionOf({5000.0, 5000.0});
  EXPECT_LT(grid.CenterDistanceNorm(middle), 0.1);
  EXPECT_GT(grid.CenterDistanceNorm(0), 0.9);
}

TEST(PoiTest, CountsPerRegionAndCategory) {
  Grid grid(1000.0, 1000.0, 500.0);
  std::vector<Poi> pois = {
      {PoiCategory::kOffice, {100.0, 100.0}},
      {PoiCategory::kOffice, {200.0, 200.0}},
      {PoiCategory::kMall, {600.0, 600.0}},
  };
  const auto counts = CountPoisPerRegion(pois, grid);
  EXPECT_EQ(counts[0][static_cast<int>(PoiCategory::kOffice)], 2.0);
  EXPECT_EQ(counts[3][static_cast<int>(PoiCategory::kMall)], 1.0);
  EXPECT_EQ(counts[1][static_cast<int>(PoiCategory::kOffice)], 0.0);
}

TEST(PoiTest, CategoryNamesAreDistinct) {
  for (int i = 0; i < kNumPoiCategories; ++i) {
    for (int j = i + 1; j < kNumPoiCategories; ++j) {
      EXPECT_STRNE(PoiCategoryName(static_cast<PoiCategory>(i)),
                   PoiCategoryName(static_cast<PoiCategory>(j)));
    }
  }
}

TEST(RoadNetworkTest, TrafficCountsPerRegion) {
  Grid grid(1000.0, 1000.0, 500.0);
  RoadNetwork net;
  net.intersections = {{100.0, 100.0}, {400.0, 100.0}, {900.0, 900.0}};
  net.roads = {{0, 1}, {1, 2}};
  const auto traffic = CountTrafficPerRegion(net, grid);
  EXPECT_EQ(traffic[0].num_intersections, 2);
  EXPECT_EQ(traffic[3].num_intersections, 1);
  // Road 0-1 midpoint (250,100) in region 0; road 1-2 midpoint (650,500)
  // in region 3 (y=500 rounds into the upper row).
  EXPECT_EQ(traffic[0].num_roads, 1);
  EXPECT_EQ(traffic[3].num_roads, 1);
}

}  // namespace
}  // namespace o2sr::geo
