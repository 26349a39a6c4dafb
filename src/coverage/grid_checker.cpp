#include "coverage/grid_checker.hpp"

#include <algorithm>

#include "wsn/spatial_grid.hpp"

namespace laacad::cov {

using geom::Circle;
using geom::Vec2;

double GridReport::fraction_at_least(int k) const {
  if (k <= 0) return 1.0;
  if (static_cast<std::size_t>(k) > covered_fraction.size()) return 0.0;
  return covered_fraction[static_cast<std::size_t>(k) - 1];
}

std::vector<Circle> sensing_disks(const wsn::Network& net) {
  std::vector<Circle> out;
  out.reserve(static_cast<std::size_t>(net.size()));
  for (wsn::NodeId i = 0; i < net.size(); ++i)
    out.push_back({net.position(i), net.sensing_range(i)});
  return out;
}

int depth_at(const std::vector<Circle>& disks, Vec2 p) {
  int d = 0;
  for (const Circle& c : disks)
    if (c.contains(p)) ++d;
  return d;
}

GridReport grid_coverage(const wsn::Domain& domain,
                         const std::vector<Circle>& disks, double resolution,
                         int max_k_tracked) {
  GridReport rep;
  rep.covered_fraction.assign(static_cast<std::size_t>(max_k_tracked), 0.0);
  if (resolution <= 0.0) return rep;

  // Accelerate depth queries with a grid over the disk centers; a point is
  // covered only by disks whose centers are within rmax.
  double rmax = 0.0;
  std::vector<Vec2> centers;
  centers.reserve(disks.size());
  for (const Circle& c : disks) {
    rmax = std::max(rmax, c.radius);
    centers.push_back(c.center);
  }
  const wsn::SpatialGrid grid(centers, std::max(rmax, resolution));

  const geom::BBox bb = domain.bbox();
  rep.min_depth = disks.empty() ? 0 : std::numeric_limits<int>::max();
  double depth_sum = 0.0;
  std::vector<std::size_t> at_least(static_cast<std::size_t>(max_k_tracked),
                                    0);
  for (double y = bb.lo.y + resolution / 2; y <= bb.hi.y; y += resolution) {
    for (double x = bb.lo.x + resolution / 2; x <= bb.hi.x; x += resolution) {
      const Vec2 p{x, y};
      if (!domain.contains(p)) continue;
      int d = 0;
      for (int idx : grid.within(p, rmax + 1e-9)) {
        if (disks[static_cast<std::size_t>(idx)].contains(p)) ++d;
      }
      ++rep.samples;
      depth_sum += d;
      if (d < rep.min_depth) {
        rep.min_depth = d;
        rep.worst_point = p;
      }
      for (int k = 1; k <= max_k_tracked && k <= d; ++k)
        ++at_least[static_cast<std::size_t>(k) - 1];
    }
  }
  if (rep.samples == 0) {
    rep.min_depth = 0;
    return rep;
  }
  rep.mean_depth = depth_sum / static_cast<double>(rep.samples);
  for (int k = 0; k < max_k_tracked; ++k)
    rep.covered_fraction[static_cast<std::size_t>(k)] =
        static_cast<double>(at_least[static_cast<std::size_t>(k)]) /
        static_cast<double>(rep.samples);
  return rep;
}

}  // namespace laacad::cov
