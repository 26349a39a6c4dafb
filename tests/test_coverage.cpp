#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "wsn/deployment.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::cov {
namespace {

using geom::Circle;
using geom::Vec2;

TEST(GridCoverage, SingleDiskCoversSmallDomain) {
  wsn::Domain d = wsn::Domain::rectangle(10, 10);
  std::vector<Circle> disks = {{{5, 5}, 8.0}};
  GridReport rep = grid_coverage(d, disks, 0.5);
  EXPECT_EQ(rep.min_depth, 1);
  EXPECT_NEAR(rep.fraction_at_least(1), 1.0, 1e-12);
  EXPECT_NEAR(rep.fraction_at_least(2), 0.0, 1e-12);
}

TEST(GridCoverage, UncoveredCornerDetected) {
  wsn::Domain d = wsn::Domain::rectangle(10, 10);
  std::vector<Circle> disks = {{{0, 0}, 6.0}};
  GridReport rep = grid_coverage(d, disks, 0.25);
  EXPECT_EQ(rep.min_depth, 0);
  // The reported worst point is genuinely uncovered.
  EXPECT_GT(geom::dist(rep.worst_point, {0, 0}), 6.0);
  // Quarter disk of radius 6 covers pi*36/4 ~ 28.3% of the 10x10 square.
  EXPECT_NEAR(rep.fraction_at_least(1), M_PI * 36.0 / 4.0 / 100.0, 0.02);
}

TEST(GridCoverage, DepthCountsOverlaps) {
  wsn::Domain d = wsn::Domain::rectangle(4, 4);
  std::vector<Circle> disks = {{{2, 2}, 5.0}, {{2, 2}, 5.0}, {{2, 2}, 5.0}};
  GridReport rep = grid_coverage(d, disks, 0.5);
  EXPECT_EQ(rep.min_depth, 3);
  EXPECT_NEAR(rep.mean_depth, 3.0, 1e-12);
}

TEST(GridCoverage, HolesAreExcluded) {
  wsn::Domain d =
      wsn::Domain::rectangle(10, 10).with_rect_hole({4, 4}, {6, 6});
  // Disk covering everything except the hole area is still "full" coverage.
  std::vector<Circle> disks = {{{5, 5}, 9.0}};
  GridReport rep = grid_coverage(d, disks, 0.2);
  EXPECT_EQ(rep.min_depth, 1);
}

TEST(GridCoverage, EmptyDisks) {
  wsn::Domain d = wsn::Domain::rectangle(10, 10);
  GridReport rep = grid_coverage(d, {}, 1.0);
  EXPECT_EQ(rep.min_depth, 0);
  EXPECT_GT(rep.samples, 0u);
}

// grid_coverage as it read with one SpatialGrid::within query per sample:
// the reference the bucketed sweep must reproduce field for field.
GridReport grid_coverage_within_queries(const wsn::Domain& domain,
                                        const std::vector<Circle>& disks,
                                        double resolution, int max_k_tracked) {
  GridReport rep;
  rep.covered_fraction.assign(static_cast<std::size_t>(max_k_tracked), 0.0);
  if (resolution <= 0.0) return rep;
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

void expect_same_report(const GridReport& got, const GridReport& want) {
  EXPECT_EQ(got.min_depth, want.min_depth);
  EXPECT_EQ(got.mean_depth, want.mean_depth);  // bitwise on purpose
  EXPECT_EQ(got.worst_point.x, want.worst_point.x);
  EXPECT_EQ(got.worst_point.y, want.worst_point.y);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.covered_fraction, want.covered_fraction);
}

TEST(GridCoverage, BucketSweepMatchesWithinQueryReference) {
  const wsn::Domain d =
      wsn::Domain::lshape(120, 90).with_rect_hole({20, 15}, {35, 30});
  const double rmax = 12.0;
  for (const double res : {0.9, 1.7, 4.0}) {
    // The in-domain samples, in sweep order (same float accumulation).
    std::vector<Vec2> samples;
    const geom::BBox bb = d.bbox();
    for (double y = bb.lo.y + res / 2; y <= bb.hi.y; y += res)
      for (double x = bb.lo.x + res / 2; x <= bb.hi.x; x += res)
        if (d.contains({x, y})) samples.push_back({x, y});
    ASSERT_GT(samples.size(), 100u);

    Rng rng(static_cast<std::uint64_t>(res * 10));
    const auto any_sample = [&] {
      return samples[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(samples.size()) - 1))];
    };
    std::vector<Circle> disks;
    for (int i = 0; i < 150; ++i)
      disks.push_back({{rng.uniform(-15, 135), rng.uniform(-15, 105)},
                       rng.uniform(2.0, rmax)});
    // Zero-radius disks, some exactly on a sample.
    for (int i = 0; i < 20; ++i) {
      const Vec2 c = i % 2 ? any_sample()
                           : Vec2{rng.uniform(0, 120), rng.uniform(0, 90)};
      disks.push_back({c, 0.0});
    }
    // Max-radius disks whose centre sits just past the old query radius
    // from a sample: Circle::contains accepts the sample there, but the
    // rmax + 1e-9 filter does not, so the depth must not count it.
    int band = 0;
    for (int i = 0; i < 12; ++i) {
      const Vec2 s = any_sample();
      const double off = rmax + 1e-9 + rng.uniform(0.1, 0.9) * 1e-9 * rmax;
      const Circle c{{s.x + off, s.y}, rmax};
      disks.push_back(c);
      const double reach = rmax + 1e-9;
      if (geom::dist2(c.center, s) > reach * reach && c.contains(s)) ++band;
    }
    ASSERT_GE(band, 10) << "res " << res;

    for (const int max_k : {3, 8}) {
      SCOPED_TRACE(testing::Message() << "res " << res << " max_k " << max_k);
      expect_same_report(grid_coverage(d, disks, res, max_k),
                         grid_coverage_within_queries(d, disks, res, max_k));
    }
    // Only zero-radius disks (rmax = 0), and none at all.
    std::vector<Circle> points;
    for (const Circle& c : disks)
      if (c.radius == 0.0) points.push_back(c);
    expect_same_report(grid_coverage(d, points, res),
                       grid_coverage_within_queries(d, points, res, 8));
    expect_same_report(grid_coverage(d, {}, res),
                       grid_coverage_within_queries(d, {}, res, 8));
  }
}

TEST(DepthAt, ClosedDiskSemantics) {
  std::vector<Circle> disks = {{{0, 0}, 1.0}, {{2, 0}, 1.0}};
  EXPECT_EQ(depth_at(disks, {1, 0}), 2);  // touching point counts for both
  EXPECT_EQ(depth_at(disks, {0, 0}), 1);
  EXPECT_EQ(depth_at(disks, {5, 5}), 0);
}

TEST(Critical, FullyCoveredDomain) {
  wsn::Domain d = wsn::Domain::rectangle(10, 10);
  std::vector<Circle> disks = {{{5, 5}, 8.0}};
  ExactReport rep = critical_point_coverage(d, disks);
  EXPECT_EQ(rep.min_depth, 1);
  EXPECT_TRUE(is_k_covered(d, disks, 1));
  EXPECT_FALSE(is_k_covered(d, disks, 2));
}

TEST(Critical, DetectsPinholeGapBetweenDisks) {
  // Three disks whose centers sit at distance 3 from the domain center with
  // radius 2.95 cover the whole 3x3 square except a ~0.1 m curvilinear gap
  // at the center — far below the 0.4 m grid resolution. The critical-point
  // checker must still find depth 0 there.
  wsn::Domain d = wsn::Domain::rectangle(3, 3);
  const Vec2 c{1.5, 1.5};
  const double dist_out = 3.0, r = 2.95;
  std::vector<Circle> disks;
  for (double ang : {M_PI / 2, M_PI * 7 / 6, M_PI * 11 / 6}) {
    disks.push_back({c + Vec2{std::cos(ang), std::sin(ang)} * dist_out, r});
  }
  ASSERT_EQ(depth_at(disks, c), 0);  // pinhole exists
  const GridReport grid = grid_coverage(d, disks, 0.4);
  EXPECT_GE(grid.min_depth, 1) << "gap should be sub-resolution";
  ExactReport rep = critical_point_coverage(d, disks);
  EXPECT_EQ(rep.min_depth, 0);
  EXPECT_NEAR(rep.witness.x, c.x, 0.3);
  EXPECT_NEAR(rep.witness.y, c.y, 0.3);
}

TEST(Critical, AgreesWithGridOnRandomConfigs) {
  laacad::Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    wsn::Domain d = wsn::Domain::rectangle(50, 50);
    std::vector<Circle> disks;
    const int n = 8 + rng.uniform_int(0, 15);
    for (int i = 0; i < n; ++i) {
      disks.push_back({{rng.uniform(0, 50), rng.uniform(0, 50)},
                       rng.uniform(6, 16)});
    }
    const ExactReport exact = critical_point_coverage(d, disks);
    const GridReport grid = grid_coverage(d, disks, 0.4);
    // The exact minimum is never above the sampled minimum, and the two
    // agree unless a sub-resolution face hides from the grid.
    EXPECT_LE(exact.min_depth, grid.min_depth);
    EXPECT_GE(exact.min_depth, grid.min_depth - 1);
  }
}

TEST(Critical, DomainWithHoleStillVerifies) {
  wsn::Domain d =
      wsn::Domain::rectangle(20, 20).with_rect_hole({8, 8}, {12, 12});
  std::vector<Circle> disks = {
      {{5, 5}, 9.0}, {{15, 5}, 9.0}, {{5, 15}, 9.0}, {{15, 15}, 9.0}};
  ExactReport rep = critical_point_coverage(d, disks);
  EXPECT_GE(rep.min_depth, 1);
}

TEST(Critical, KCoverageOfStackedDisks) {
  wsn::Domain d = wsn::Domain::rectangle(6, 6);
  std::vector<Circle> disks;
  for (int i = 0; i < 4; ++i) disks.push_back({{3, 3}, 6.0});
  EXPECT_TRUE(is_k_covered(d, disks, 4));
  EXPECT_FALSE(is_k_covered(d, disks, 5));
}

TEST(Critical, NetworkHelperExtractsDisks) {
  wsn::Domain d = wsn::Domain::rectangle(10, 10);
  wsn::Network net(&d, {{2, 2}, {8, 8}}, 5.0);
  net.set_sensing_range(0, 1.0);
  net.set_sensing_range(1, 2.0);
  auto disks = sensing_disks(net);
  ASSERT_EQ(disks.size(), 2u);
  EXPECT_DOUBLE_EQ(disks[0].radius, 1.0);
  EXPECT_DOUBLE_EQ(disks[1].radius, 2.0);
}

}  // namespace
}  // namespace laacad::cov
