#include "coverage/grid_checker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

  // A sample is covered only by disks whose centres lie within rmax of it:
  // each candidate passes dist2 <= reach2 before the disk's own test.
  double rmax = 0.0;
  for (const Circle& c : disks) rmax = std::max(rmax, c.radius);
  const double reach = rmax + 1e-9;
  const double reach2 = reach * reach;

  // Counting-sort the disks into square buckets over the sample area, two
  // buckets of margin on each side. A centre passing dist2 <= reach2 lies
  // within reach * (1 + 4 ulp) of its sample. The side exceeds reach by a
  // relative 1e-6, far above the rounding of the index arithmetic (under
  // 1e-12 of a bucket at <= kMaxBuckets + 5 buckets per axis), so such a
  // centre sits in the sample's bucket or a neighbour: the 3x3 block around
  // a sample is a superset of its candidates, and the sweep below never
  // allocates. The side grows past reach only to cap the bucket count.
  constexpr double kMaxBuckets = 2048.0;
  const geom::BBox bb = domain.bbox();
  const double side =
      std::max({reach, resolution, (bb.hi.x - bb.lo.x) / kMaxBuckets,
                (bb.hi.y - bb.lo.y) / kMaxBuckets}) *
      (1.0 + 1e-6);
  const Vec2 origin = bb.lo - Vec2{2.0 * side, 2.0 * side};
  const auto buckets = [&](double span) {
    const double n = std::floor(span / side) + 5.0;
    return n >= 1.0 ? static_cast<int>(std::min(n, kMaxBuckets + 5.0)) : 1;
  };
  const int nx = buckets(bb.hi.x - bb.lo.x);
  const int ny = buckets(bb.hi.y - bb.lo.y);
  // Clamped to [0, n): a centre clamped (or NaN, sent to bucket 0) is out of
  // every sample's reach, so dist2 rejects it wherever it lands.
  const auto index = [&](double v, double lo, int n) {
    const double t = std::floor((v - lo) / side);
    return t >= 1.0 ? static_cast<int>(std::min(t, n - 1.0)) : 0;
  };
  const std::size_t nb = static_cast<std::size_t>(nx) * ny;
  std::vector<int> start(nb + 1, 0);
  std::vector<int> bucket_of(disks.size());
  for (std::size_t i = 0; i < disks.size(); ++i) {
    const Vec2 c = disks[i].center;
    bucket_of[i] = index(c.y, origin.y, ny) * nx + index(c.x, origin.x, nx);
    ++start[static_cast<std::size_t>(bucket_of[i]) + 1];
  }
  for (std::size_t b = 0; b < nb; ++b) start[b + 1] += start[b];
  std::vector<Circle> sorted(disks.size());
  {
    std::vector<int> cursor(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < disks.size(); ++i)
      sorted[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(bucket_of[i])]++)] = disks[i];
  }

  rep.min_depth = disks.empty() ? 0 : std::numeric_limits<int>::max();
  double depth_sum = 0.0;
  std::vector<std::size_t> at_least(static_cast<std::size_t>(max_k_tracked),
                                    0);
  for (double y = bb.lo.y + resolution / 2; y <= bb.hi.y; y += resolution) {
    const int by = index(y, origin.y, ny);
    const int y_lo = std::max(0, by - 1), y_hi = std::min(ny - 1, by + 1);
    for (double x = bb.lo.x + resolution / 2; x <= bb.hi.x; x += resolution) {
      const Vec2 p{x, y};
      if (!domain.contains(p)) continue;
      const int bx = index(x, origin.x, nx);
      const int x_lo = std::max(0, bx - 1), x_hi = std::min(nx - 1, bx + 1);
      int d = 0;
      for (int row = y_lo; row <= y_hi; ++row) {
        // A row of the block is one contiguous slot range.
        const int end = start[static_cast<std::size_t>(row * nx + x_hi) + 1];
        for (int j = start[static_cast<std::size_t>(row * nx + x_lo)]; j < end;
             ++j) {
          const Circle& c = sorted[static_cast<std::size_t>(j)];
          if (geom::dist2(c.center, p) <= reach2 && c.contains(p)) ++d;
        }
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
