#ifndef O2SR_GEO_GEOMETRY_H_
#define O2SR_GEO_GEOMETRY_H_

#include <cmath>

namespace o2sr::geo {

// Planar point in meters, relative to the city's south-west corner. The
// simulator and all graph computations work in this frame.
struct Point {
  double x = 0.0;  // east, meters
  double y = 0.0;  // north, meters
};

// Euclidean distance in meters.
inline double EuclideanMeters(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace o2sr::geo

#endif  // O2SR_GEO_GEOMETRY_H_
