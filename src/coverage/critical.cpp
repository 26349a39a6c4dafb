#include "coverage/critical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "coverage/grid_checker.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::cov {

using geom::Circle;
using geom::Ring;
using geom::Vec2;

namespace {

/// Probe offset per meter of domain extent (see critical_point_coverage).
constexpr double kProbeOffsetPerMeter = 1e-7;

// All boundary segments of the domain (outer ring + holes).
std::vector<std::pair<Vec2, Vec2>> domain_edges(const wsn::Domain& domain) {
  std::vector<std::pair<Vec2, Vec2>> out;
  auto add_ring = [&](const Ring& r) {
    for (std::size_t i = 0; i < r.size(); ++i)
      out.emplace_back(r[i], r[(i + 1) % r.size()]);
  };
  add_ring(domain.outer());
  for (const Ring& h : domain.holes()) add_ring(h);
  return out;
}

}  // namespace

ExactReport critical_point_coverage(const wsn::Domain& domain,
                                    const std::vector<Circle>& disks) {
  ExactReport rep;
  const geom::BBox bb = domain.bbox();
  const double scale = std::max(bb.width(), bb.height());
  const double delta = kProbeOffsetPerMeter * (1 + scale);

  // Depth evaluation accelerated by a grid over disk centers.
  double rmax = 0.0;
  std::vector<Vec2> centers;
  centers.reserve(disks.size());
  for (const Circle& c : disks) {
    rmax = std::max(rmax, c.radius);
    centers.push_back(c.center);
  }
  const wsn::SpatialGrid grid(centers, std::max(rmax, 1.0));
  auto depth = [&](Vec2 p) {
    int d = 0;
    for (int idx : grid.within(p, rmax + 1e-9))
      if (disks[static_cast<std::size_t>(idx)].contains(p)) ++d;
    return d;
  };

  rep.min_depth = std::numeric_limits<int>::max();
  auto consider = [&](Vec2 candidate) {
    ++rep.candidates;
    // Probe the faces adjacent to the candidate: slight offsets in eight
    // directions (plus the point itself for interior candidates).
    for (int dir = -1; dir < 8; ++dir) {
      Vec2 p = candidate;
      if (dir >= 0) {
        const double a = dir * M_PI / 4.0;
        p += Vec2{std::cos(a), std::sin(a)} * delta;
      }
      if (!domain.contains(p, 0.0)) continue;
      const int d = depth(p);
      if (d < rep.min_depth) {
        rep.min_depth = d;
        rep.witness = p;
      }
    }
  };

  const auto edges = domain_edges(domain);

  // 1. Domain vertices.
  for (const auto& [a, b] : edges) consider(a);

  // 2. Circle-circle intersections. Only pairs close enough to touch.
  for (std::size_t i = 0; i < disks.size(); ++i) {
    for (int j : grid.within(disks[i].center, disks[i].radius + rmax + 1e-9)) {
      if (static_cast<std::size_t>(j) <= i) continue;
      for (Vec2 p : geom::circle_circle_intersections(
               disks[i], disks[static_cast<std::size_t>(j)]))
        consider(p);
    }
  }

  // 3. Circle-domain-edge intersections, plus a few samples per circle so
  //    isolated circles (no intersections at all) still contribute their
  //    inside/outside faces.
  for (const Circle& c : disks) {
    if (c.radius <= 0.0) continue;
    for (const auto& [a, b] : edges)
      for (Vec2 p : geom::circle_segment_intersections(c, a, b)) consider(p);
    for (int s = 0; s < 8; ++s) {
      const double ang = s * M_PI / 4.0;
      consider(c.center + Vec2{std::cos(ang), std::sin(ang)} * c.radius);
    }
    consider(c.center);
  }

  if (rep.min_depth == std::numeric_limits<int>::max()) {
    // No probe landed inside the domain (e.g. no disks and a domain whose
    // vertices' probes all fell outside — degenerate). Fall back to any
    // domain point.
    rep.min_depth = disks.empty() ? 0 : depth(bb.center());
    rep.witness = bb.center();
  }
  return rep;
}

bool is_k_covered(const wsn::Domain& domain, const std::vector<Circle>& disks,
                  int k) {
  return critical_point_coverage(domain, disks).min_depth >= k;
}

}  // namespace laacad::cov
