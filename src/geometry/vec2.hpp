// 2-D vector type and the basic predicates the rest of the geometry stack
// builds on. Coordinates are metres throughout the project.
#pragma once

#include <cmath>
#include <iosfwd>
#include <span>

namespace laacad::geom {

/// Absolute tolerance (in metres) used by geometric predicates. Domains in
/// this project are at most a few kilometres across, so 1e-9 m leaves ~7
/// decimal digits of headroom above double precision.
inline constexpr double kEps = 1e-9;

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2 operator-() const { return {-x, -y}; }
  Vec2& operator+=(Vec2 o) { x += o.x; y += o.y; return *this; }
  Vec2& operator-=(Vec2 o) { x -= o.x; y -= o.y; return *this; }
  Vec2& operator*=(double s) { x *= s; y *= s; return *this; }

  constexpr bool operator==(const Vec2&) const = default;

  double norm() const { return std::hypot(x, y); }
  constexpr double norm2() const { return x * x + y * y; }

  /// Unit vector in the same direction; returns (0,0) for the zero vector.
  Vec2 normalized() const;

  /// Counter-clockwise perpendicular (rotate by +90 degrees).
  constexpr Vec2 perp() const { return {-y, x}; }

  /// Rotate by `angle` radians counter-clockwise.
  Vec2 rotated(double angle) const;

  /// Angle of this vector in (-pi, pi], as given by atan2.
  double angle() const { return std::atan2(y, x); }
};

constexpr Vec2 operator*(double s, Vec2 v) { return v * s; }

constexpr double dot(Vec2 a, Vec2 b) { return a.x * b.x + a.y * b.y; }

/// z-component of the 3-D cross product; positive when b lies counter-
/// clockwise of a.
constexpr double cross(Vec2 a, Vec2 b) { return a.x * b.y - a.y * b.x; }

inline double dist(Vec2 a, Vec2 b) { return (a - b).norm(); }
constexpr double dist2(Vec2 a, Vec2 b) { return (a - b).norm2(); }

// ------------------------------------------------ filtered predicates ----
//
// Exact distance comparisons without std::hypot. Each predicate returns
// exactly what its dist() expression returns (dist() is std::hypot), but
// decides from dist2 whenever an error bound makes the answer certain and
// evaluates hypot only inside the margin (the filtered-predicate scheme of
// Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
// Geometric Predicates", 1997). Every fall-back to hypot counts one
// perf::KernelCounters::exact_fallbacks.

/// Relative margin of the filters. With u = 2^-53, for a difference vector
/// e = a - b (computed once, shared by both expressions):
///   s = fl(e.x^2 + e.y^2)   = |e|^2 (1 + t),  |t| <= 2u + u^2,
///   h = hypot(e.x, e.y)     = |e| (1 + t'),   |t'| <= 2u (glibc: < 1 ulp),
///   r2 = fl(r * r)          = r^2 (1 + t''),  |t''| <= u,
/// and the product r2 * (1 -/+ kDistFilter) adds another u. So
/// s < r2 (1 - kDistFilter) implies h^2 < r^2 (1 + 8u)(1 - kDistFilter),
/// which is < r^2 — hence h < r — once kDistFilter > 8u ~ 9e-16;
/// symmetrically for >. 1e-12 exceeds that few-ulp gap by three orders of
/// magnitude, so even a hypot hundreds of ulps off stays on the right side.
/// The bound is relative, so it holds only where squares neither overflow
/// nor lose digits to underflow: see kFilterMin2 / kFilterMax2.
inline constexpr double kDistFilter = 1e-12;

/// Squared magnitudes the filters decide from: the reference square (r^2,
/// the right-hand side of closer, the largest square of max_dist) must lie
/// in (kFilterMin2, kFilterMax2). Squares of components below ~1e-154
/// underflow with an absolute error of a few 2^-1074 ~ 1e-323, negligible
/// beside the smallest margin kDistFilter * 1e-200; the upper limit keeps
/// the reference and its margin finite, and a square that overflowed to
/// inf still compares as larger. NaN and inf references fail the range
/// test and take the exact path.
inline constexpr double kFilterMin2 = 1e-200;
inline constexpr double kFilterMax2 = 1e200;

constexpr bool filterable(double sq) {
  return sq > kFilterMin2 && sq < kFilterMax2;
}

/// The filter itself: -1 when the square s is certainly below the
/// reference square ref2, +1 when certainly above, 0 when it cannot tell
/// (within the kDistFilter margin, ref2 out of the filter range, or NaN).
constexpr int compare_squares(double s, double ref2) {
  if (!filterable(ref2)) return 0;
  if (s < ref2 * (1.0 - kDistFilter)) return -1;
  if (s > ref2 * (1.0 + kDistFilter)) return 1;
  return 0;
}

namespace detail {
// The exact paths (std::hypot), out of line; each counts one fallback.
bool dist_lt_exact(Vec2 a, Vec2 b, double r);
bool dist_le_exact(Vec2 a, Vec2 b, double r);
bool closer_exact(Vec2 p, Vec2 q, Vec2 v);
}  // namespace detail

/// dist(a, b) < r, bit for bit.
inline bool dist_lt(Vec2 a, Vec2 b, double r) {
  const int c = r > 0.0 ? compare_squares(dist2(a, b), r * r) : 0;
  return c != 0 ? c < 0 : detail::dist_lt_exact(a, b, r);
}

/// dist(a, b) <= r, bit for bit.
inline bool dist_le(Vec2 a, Vec2 b, double r) {
  const int c = r > 0.0 ? compare_squares(dist2(a, b), r * r) : 0;
  return c != 0 ? c < 0 : detail::dist_le_exact(a, b, r);
}

/// dist(p, v) < dist(q, v), bit for bit.
inline bool closer(Vec2 p, Vec2 q, Vec2 v) {
  const int c = compare_squares(dist2(p, v), dist2(q, v));
  return c != 0 ? c < 0 : detail::closer_exact(p, q, v);
}

/// max over `points` of dist2(ref, p), starting from 0; NaN when any
/// square is NaN (hypot(inf, NaN) is inf, so such a point may still carry
/// the max distance).
double max_dist2(Vec2 ref, std::span<const Vec2> points);

/// max over `points` of dist(ref, p), starting from 0 (the std::max loop),
/// bit for bit: one dist2 scan finds the farthest square, then hypot runs
/// only on the points within the margin of it.
double max_dist(Vec2 ref, std::span<const Vec2> points);

/// Linear interpolation a + t (b - a).
constexpr Vec2 lerp(Vec2 a, Vec2 b, double t) { return a + (b - a) * t; }

/// Midpoint of a and b.
constexpr Vec2 midpoint(Vec2 a, Vec2 b) { return (a + b) * 0.5; }

/// Orientation of the ordered triple (a, b, c): +1 for a counter-clockwise
/// turn, -1 for clockwise, 0 for (numerically) collinear.
int orientation(Vec2 a, Vec2 b, Vec2 c, double eps = kEps);

/// True when a and b coincide within `eps`.
bool almost_equal(Vec2 a, Vec2 b, double eps = kEps);

std::ostream& operator<<(std::ostream& os, Vec2 v);

}  // namespace laacad::geom
