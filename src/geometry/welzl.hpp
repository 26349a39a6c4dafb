// Welzl's minimum enclosing circle [26 in the paper].
//
// LAACAD's motion target is the Chebyshev center of a node's dominating
// region; the paper computes it as the center of the minimum enclosing circle
// of the region's vertices ("we apply Welzl's algorithm ... by taking the
// vertices of the region as the input"). `min_enclosing_circle` is that
// primitive.
#pragma once

#include <vector>

#include "geometry/circle.hpp"
#include "geometry/vec2.hpp"

namespace laacad::geom {

/// Minimum enclosing circle of a point set (expected O(n), deterministic:
/// the internal shuffle uses a fixed seed). Empty input yields an invalid
/// circle (radius < 0).
Circle min_enclosing_circle(std::vector<Vec2> points);

}  // namespace laacad::geom
