// Half-planes and perpendicular-bisector half-planes. The order-k Voronoi
// machinery expresses every cell as an intersection of bisector half-planes,
// so this is the innermost kernel of the whole reproduction.
#pragma once

#include <span>

#include "geometry/vec2.hpp"

namespace laacad::geom {

/// Closed half-plane { v : dot(v - point, normal) <= 0 } with `normal` of
/// unit length, so `signed_dist` is a distance in metres (negative inside).
struct HalfPlane {
  Vec2 point;    ///< Any point on the boundary line.
  Vec2 normal;   ///< Unit outward normal.

  /// Signed distance of v from the boundary; <= 0 means inside.
  double signed_dist(Vec2 v) const { return dot(v - point, normal); }

  bool contains(Vec2 v, double eps = kEps) const {
    return signed_dist(v) <= eps;
  }

  /// Direction along the boundary line (normal rotated -90 degrees, so the
  /// inside lies to the left of the direction of travel).
  Vec2 tangent() const { return {normal.y, -normal.x}; }
};

/// Half-plane of points at least as close to `keep` as to `other`
/// (the perpendicular bisector, keeping keep's side). Requires
/// keep != other; nearly coincident inputs are handled by the caller
/// (see voronoi::SiteSet degeneracy handling).
HalfPlane bisector_halfplane(Vec2 keep, Vec2 other);

/// Where a ring lies against bisector_halfplane(keep, other) at tolerance
/// kEps, as the order-k kernel's quick reject reads it.
enum class RingSide {
  kInside,  ///< every vertex has signed_dist < -kEps
  kTouch,   ///< every vertex <= kEps, and some vertex >= -kEps
  kCut,     ///< some vertex has signed_dist > kEps: the bisector clips
};

/// The reference: scan `ring` with the exact bisector_halfplane's
/// signed_dist, stopping at the first vertex beyond kEps.
RingSide bisector_side_exact(Vec2 keep, Vec2 other,
                             std::span<const Vec2> ring);

/// bisector_side_exact's answer, bit for bit, without the hypot of the
/// exact normal: each vertex is classified against the unnormalised
/// direction other - keep scaled by 1/sqrt(|e|^2), inside a certified band
/// around +-kEps. A vertex in the band, |e| below 2 kEps or an input out of
/// the filter range falls back to the exact scan (one exact_fallbacks).
RingSide bisector_side(Vec2 keep, Vec2 other, std::span<const Vec2> ring);

}  // namespace laacad::geom
