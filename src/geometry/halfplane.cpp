#include "geometry/halfplane.hpp"

#include "common/perf_counters.hpp"

namespace laacad::geom {

HalfPlane bisector_halfplane(Vec2 keep, Vec2 other) {
  HalfPlane hp;
  hp.point = midpoint(keep, other);
  hp.normal = (other - keep).normalized();
  return hp;
}

RingSide bisector_side_exact(Vec2 keep, Vec2 other,
                             std::span<const Vec2> ring) {
  const HalfPlane hp = bisector_halfplane(keep, other);
  bool touch = false;
  for (Vec2 v : ring) {
    const double d = hp.signed_dist(v);
    if (d > kEps) return RingSide::kCut;
    touch |= d >= -kEps;
  }
  return touch ? RingSide::kTouch : RingSide::kInside;
}

RingSide bisector_side(Vec2 keep, Vec2 other, std::span<const Vec2> ring) {
  ++perf::counters().bisector_scans;
  // Error bound. Both scans share w = v - midpoint(keep, other) bit for
  // bit; they differ only in the normal. Each normal component is
  // e/|e| to within ~6u relative (u = 2^-53: the exact one through hypot
  // and a division, this one through a sum of squares, sqrt, reciprocal
  // and product), and each two-term dot product adds ~2u, so the two
  // signed distances differ by at most ~18u (|w.x| + |w.y|) < 2e-15
  // (|w.x| + |w.y|). The band kDistFilter (|w.x| + |w.y|) is 500 times
  // that. Rounding kEps +- band itself is below u kEps, which matters only
  // when |w| < 1e-13 and both distances are far inside +-kEps anyway.
  const Vec2 e = other - keep;
  const double e2 = e.norm2();
  // Below |e| = 2 kEps the exact normal may be the (0,0) of normalized().
  if (!(e2 > 4.0 * kEps * kEps && e2 < kFilterMax2)) {
    ++perf::counters().exact_fallbacks;
    return bisector_side_exact(keep, other, ring);
  }
  const Vec2 n = e * (1.0 / std::sqrt(e2));
  const Vec2 p = midpoint(keep, other);
  bool touch = false, unsure = false;
  for (Vec2 v : ring) {
    const Vec2 w = v - p;
    const double d = dot(w, n);
    const double band = kDistFilter * (std::abs(w.x) + std::abs(w.y));
    if (d > kEps + band) return RingSide::kCut;  // certain, whatever came before
    if (d >= -kEps + band && d < kEps - band)
      touch = true;
    else if (!(d < -kEps - band))
      unsure = true;  // in a band, or NaN
  }
  if (unsure) {
    ++perf::counters().exact_fallbacks;
    return bisector_side_exact(keep, other, ring);
  }
  return touch ? RingSide::kTouch : RingSide::kInside;
}

}  // namespace laacad::geom
