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
/// the internal shuffle uses a fixed seed per input size). Empty input
/// yields an invalid circle (radius < 0).
Circle min_enclosing_circle(const std::vector<Vec2>& points);

/// The move-to-front construction over `points` in the order given, with
/// no shuffle. min_enclosing_circle runs this over its input shuffled by
/// std::shuffle with std::mt19937_64(0x5eed5eed ^ size); exposed so tests
/// can replay that order.
Circle min_enclosing_circle_in_order(const std::vector<Vec2>& points);

}  // namespace laacad::geom
