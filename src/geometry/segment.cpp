#include "geometry/segment.hpp"

#include <algorithm>

namespace laacad::geom {

Vec2 closest_point_on_segment(Vec2 p, Vec2 a, Vec2 b) {
  const Vec2 ab = b - a;
  const double len2 = ab.norm2();
  if (len2 < kEps * kEps) return a;
  double t = dot(p - a, ab) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return a + ab * t;
}

double dist_point_segment(Vec2 p, Vec2 a, Vec2 b) {
  return dist(p, closest_point_on_segment(p, a, b));
}

}  // namespace laacad::geom
