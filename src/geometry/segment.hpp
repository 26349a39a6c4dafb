// Segment utilities: the closest point on a segment and the distance to it.
#pragma once

#include "geometry/vec2.hpp"

namespace laacad::geom {

/// Closest point on segment [a,b] to p.
Vec2 closest_point_on_segment(Vec2 p, Vec2 a, Vec2 b);

/// Euclidean distance from p to segment [a,b].
double dist_point_segment(Vec2 p, Vec2 a, Vec2 b);

}  // namespace laacad::geom
