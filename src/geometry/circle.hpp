// Circles: containment, circumcircles, and the intersection routines the
// exact coverage checker relies on.
#pragma once

#include <optional>
#include <vector>

#include "geometry/segment.hpp"
#include "geometry/vec2.hpp"

namespace laacad::geom {

struct Circle {
  Vec2 center{0, 0};
  double radius = 0.0;

  bool valid() const { return radius >= 0.0; }
  double area() const { return M_PI * radius * radius; }

  /// Closed-disk containment with tolerance scaled to the radius.
  bool contains(Vec2 p, double eps = kEps) const {
    return dist_le(center, p, radius + eps * (1.0 + radius));
  }
};

/// Circle through two points (diameter circle).
Circle circle_from_2(Vec2 a, Vec2 b);

/// Circumcircle of a triangle; nullopt for (near-)collinear input.
std::optional<Circle> circle_from_3(Vec2 a, Vec2 b, Vec2 c);

/// Intersection points of two circle *boundaries* (0, 1, or 2 points).
/// Coincident circles return no points.
std::vector<Vec2> circle_circle_intersections(const Circle& a,
                                              const Circle& b);

/// Intersection points of a circle boundary with segment [p, q].
std::vector<Vec2> circle_segment_intersections(const Circle& c, Vec2 p,
                                               Vec2 q);

}  // namespace laacad::geom
