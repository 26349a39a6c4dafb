#include "geometry/polygon.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/perf_counters.hpp"

namespace laacad::geom {

double signed_area(const Ring& ring) {
  const std::size_t n = ring.size();
  if (n < 3) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 a = ring[i], b = ring[(i + 1) % n];
    s += cross(a, b);
  }
  return 0.5 * s;
}

double area(const Ring& ring) { return std::abs(signed_area(ring)); }

double perimeter(const Ring& ring) {
  const std::size_t n = ring.size();
  if (n < 2) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += dist(ring[i], ring[(i + 1) % n]);
  return s;
}

Vec2 centroid(const Ring& ring) {
  const std::size_t n = ring.size();
  if (n == 0) return {0, 0};
  const double a = signed_area(ring);
  if (std::abs(a) < kEps * kEps) {
    Vec2 m{0, 0};
    for (Vec2 v : ring) m += v;
    return m / static_cast<double>(n);
  }
  Vec2 c{0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 p = ring[i], q = ring[(i + 1) % n];
    const double w = cross(p, q);
    c += (p + q) * w;
  }
  return c / (6.0 * a);
}

void make_ccw(Ring& ring) {
  if (signed_area(ring) < 0.0) std::reverse(ring.begin(), ring.end());
}

BBox bounding_box(const Ring& ring) {
  BBox b;
  if (ring.empty()) return b;
  b.lo = b.hi = ring.front();
  for (Vec2 v : ring) {
    b.lo.x = std::min(b.lo.x, v.x);
    b.lo.y = std::min(b.lo.y, v.y);
    b.hi.x = std::max(b.hi.x, v.x);
    b.hi.y = std::max(b.hi.y, v.y);
  }
  return b;
}

bool contains_point(const Ring& ring, Vec2 p, double eps) {
  const std::size_t n = ring.size();
  if (n < 3) return false;
  // Crossing parity first, as it needs no sqrt; only a point it calls
  // outside pays for the edge distances. Boundary proximity counts as
  // inside.
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Vec2 a = ring[i], b = ring[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double t = (p.y - a.y) / (b.y - a.y);
      const double xint = a.x + t * (b.x - a.x);
      if (p.x < xint) inside = !inside;
    }
  }
  if (inside) return true;
  for (std::size_t i = 0; i < n; ++i) {
    if (dist_point_segment(p, ring[i], ring[(i + 1) % n]) <= eps) return true;
  }
  return false;
}

double dist_to_boundary(const Ring& ring, Vec2 p) {
  const std::size_t n = ring.size();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    best = std::min(best, dist_point_segment(p, ring[i], ring[(i + 1) % n]));
  }
  return best;
}

Vec2 project_to_boundary(const Ring& ring, Vec2 p) {
  const std::size_t n = ring.size();
  double best = std::numeric_limits<double>::infinity();
  Vec2 result = p;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 c = closest_point_on_segment(p, ring[i], ring[(i + 1) % n]);
    const double d = dist(p, c);
    if (d < best) {
      best = d;
      result = c;
    }
  }
  return result;
}

std::optional<std::pair<std::size_t, double>> farthest_vertex(const Ring& ring,
                                                              Vec2 p) {
  if (ring.empty()) return std::nullopt;
  std::size_t arg = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const double d = dist(p, ring[i]);
    if (d > best) {
      best = d;
      arg = i;
    }
  }
  return std::make_pair(arg, best);
}

void clip_ring_into(const Ring& ring, const HalfPlane& hp, Ring& out,
                    double eps, EdgeLabels* labels) {
  out.clear();
  if (labels) labels->out.clear();
  const std::size_t n = ring.size();
  if (n == 0) return;
  auto& pc = perf::counters();
  ++pc.clip_calls;
  const std::size_t cap0 = out.capacity();
  // Push with the dedupe_ring consecutive-duplicate check inlined, so the
  // arena variant needs no second pass (and no second ring) to normalize.
  // `label` tags the edge leaving v; a dropped duplicate hands its outgoing
  // edge to the vertex it merged into.
  const int clip_label = labels ? labels->clip : 0;
  auto push = [&](Vec2 v, int label) {
    if (out.empty() || !almost_equal(out.back(), v, eps)) {
      out.push_back(v);
      if (labels) labels->out.push_back(label);
    } else if (labels) {
      labels->out.back() = label;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 a = ring[i], b = ring[(i + 1) % n];
    const double da = hp.signed_dist(a);
    const double db = hp.signed_dist(b);
    const bool ina = da <= eps, inb = db <= eps;
    const int edge = labels ? labels->in[i] : 0;
    if (ina) push(a, edge);
    if (ina != inb) {
      // Edge crosses the boundary; da != db here because the signs differ
      // beyond +-eps on at least one side. Leaving the half-plane, the
      // result runs along the clip line until it re-enters.
      const double t = da / (da - db);
      push(lerp(a, b, std::clamp(t, 0.0, 1.0)), ina ? clip_label : edge);
    }
  }
  while (out.size() >= 2 && almost_equal(out.front(), out.back(), eps)) {
    out.pop_back();
    if (labels) labels->out.pop_back();
  }
  if (out.size() < 3) {
    out.clear();
    if (labels) labels->out.clear();
  }
  if (out.capacity() != cap0) ++pc.ring_allocs;
}

Ring clip_ring(const Ring& ring, const HalfPlane& hp, double eps) {
  Ring out;
  out.reserve(ring.size() + 2);
  if (!ring.empty()) ++perf::counters().ring_allocs;
  clip_ring_into(ring, hp, out, eps);
  return out;
}

Ring sutherland_hodgman(const Ring& subject, const Ring& convex_window,
                        double eps) {
  if (convex_window.size() < 3) return {};
  Ring window = convex_window;
  make_ccw(window);
  Ring out = subject;
  const std::size_t m = window.size();
  for (std::size_t i = 0; i < m && !out.empty(); ++i) {
    const Vec2 a = window[i], b = window[(i + 1) % m];
    HalfPlane hp;
    hp.point = a;
    // Window is CCW, so the inside lies to the left of a->b; the outward
    // normal is the right-hand perpendicular.
    hp.normal = Vec2{(b - a).y, -(b - a).x}.normalized();
    out = clip_ring(out, hp, eps);
  }
  return out;
}

Ring dedupe_ring(const Ring& ring, double eps) {
  Ring out;
  out.reserve(ring.size());
  for (Vec2 v : ring) {
    if (out.empty() || !almost_equal(out.back(), v, eps)) out.push_back(v);
  }
  while (out.size() >= 2 && almost_equal(out.front(), out.back(), eps))
    out.pop_back();
  if (out.size() < 3) return {};
  return out;
}

Ring circumscribed_ngon(Vec2 center, double radius, int n) {
  Ring out;
  out.reserve(static_cast<std::size_t>(n));
  const double apothem_scale = 1.0 / std::cos(M_PI / n);
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * (i + 0.5) / n;
    out.push_back(center +
                  Vec2{std::cos(a), std::sin(a)} * (radius * apothem_scale));
  }
  return out;
}

Ring inscribed_ngon(Vec2 center, double radius, int n) {
  Ring out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * i / n;
    out.push_back(center + Vec2{std::cos(a), std::sin(a)} * radius);
  }
  return out;
}

Ring box_ring(const BBox& box) {
  return {box.lo, {box.hi.x, box.lo.y}, box.hi, {box.lo.x, box.hi.y}};
}

}  // namespace laacad::geom
