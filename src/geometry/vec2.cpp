#include "geometry/vec2.hpp"

#include <algorithm>
#include <ostream>

#include "common/perf_counters.hpp"

namespace laacad::geom {

Vec2 Vec2::normalized() const {
  const double n = norm();
  if (n < kEps) return {0.0, 0.0};
  return {x / n, y / n};
}

Vec2 Vec2::rotated(double angle) const {
  const double c = std::cos(angle), s = std::sin(angle);
  return {x * c - y * s, x * s + y * c};
}

int orientation(Vec2 a, Vec2 b, Vec2 c, double eps) {
  const double v = cross(b - a, c - a);
  if (v > eps) return 1;
  if (v < -eps) return -1;
  return 0;
}

bool almost_equal(Vec2 a, Vec2 b, double eps) {
  return std::abs(a.x - b.x) <= eps && std::abs(a.y - b.y) <= eps;
}

namespace detail {

bool dist_lt_exact(Vec2 a, Vec2 b, double r) {
  ++perf::counters().exact_fallbacks;
  return dist(a, b) < r;
}

bool dist_le_exact(Vec2 a, Vec2 b, double r) {
  ++perf::counters().exact_fallbacks;
  return dist(a, b) <= r;
}

bool closer_exact(Vec2 p, Vec2 q, Vec2 v) {
  ++perf::counters().exact_fallbacks;
  return dist(p, v) < dist(q, v);
}

}  // namespace detail

double max_dist2(Vec2 ref, std::span<const Vec2> points) {
  double s_max = 0.0;
  bool nan = false;
  for (Vec2 p : points) {
    const double s = dist2(ref, p);
    s_max = std::max(s_max, s);
    nan |= s != s;
  }
  return nan ? std::nan("") : s_max;
}

double max_dist(Vec2 ref, std::span<const Vec2> points) {
  const double s_max = max_dist2(ref, points);
  double m = 0.0;
  if (points.empty()) return m;
  if (!filterable(s_max)) {
    ++perf::counters().exact_fallbacks;
    for (Vec2 p : points) m = std::max(m, dist(ref, p));
    return m;
  }
  // A point certainly nearer than the farthest one cannot carry the max.
  for (Vec2 p : points)
    if (compare_squares(dist2(ref, p), s_max) >= 0)
      m = std::max(m, dist(ref, p));
  return m;
}

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << '(' << v.x << ", " << v.y << ')';
}

}  // namespace laacad::geom
