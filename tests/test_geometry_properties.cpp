// Cross-cutting randomized property sweeps over the geometry substrate —
// the invariants every higher layer silently relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/perf_counters.hpp"
#include "common/rng.hpp"
#include "geometry/circle.hpp"
#include "geometry/convex.hpp"
#include "geometry/halfplane.hpp"
#include "geometry/polygon.hpp"
#include "geometry/welzl.hpp"
#include "voronoi/sites.hpp"

namespace laacad::geom {
namespace {

Ring random_convex(laacad::Rng& rng, int n, double scale) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0, scale), rng.uniform(0, scale)});
  return convex_hull(pts);
}

class GeomSweep : public ::testing::TestWithParam<int> {
 protected:
  laacad::Rng rng_{static_cast<std::uint64_t>(2000 + GetParam())};
};

TEST_P(GeomSweep, ClipNeverGrowsAreaAndStaysInside) {
  Ring poly = random_convex(rng_, 12, 100.0);
  if (poly.size() < 3) GTEST_SKIP();
  const double a0 = area(poly);
  for (int t = 0; t < 10; ++t) {
    Vec2 p{rng_.uniform(0, 100), rng_.uniform(0, 100)};
    Vec2 q{rng_.uniform(0, 100), rng_.uniform(0, 100)};
    if (almost_equal(p, q)) continue;
    const HalfPlane hp = bisector_halfplane(p, q);
    Ring clipped = clip_ring(poly, hp);
    EXPECT_LE(area(clipped), a0 + 1e-9);
    for (Vec2 v : clipped) EXPECT_LE(hp.signed_dist(v), 1e-6);
  }
}

TEST_P(GeomSweep, ClipAreasPartitionExactly) {
  // Clipping by hp and by its complement splits the area exactly.
  Ring poly = random_convex(rng_, 10, 50.0);
  if (poly.size() < 3) GTEST_SKIP();
  Vec2 p{rng_.uniform(0, 50), rng_.uniform(0, 50)};
  Vec2 q{rng_.uniform(0, 50), rng_.uniform(0, 50)};
  if (almost_equal(p, q)) GTEST_SKIP();
  const HalfPlane hp = bisector_halfplane(p, q);
  const HalfPlane opposite = bisector_halfplane(q, p);
  const double a = area(clip_ring(poly, hp));
  const double b = area(clip_ring(poly, opposite));
  EXPECT_NEAR(a + b, area(poly), 1e-6);
}

TEST_P(GeomSweep, SutherlandHodgmanCommutesOnConvex) {
  Ring a = random_convex(rng_, 8, 80.0);
  Ring b = random_convex(rng_, 8, 80.0);
  if (a.size() < 3 || b.size() < 3) GTEST_SKIP();
  const double ab = area(sutherland_hodgman(a, b));
  const double ba = area(sutherland_hodgman(b, a));
  EXPECT_NEAR(ab, ba, 1e-6 * (1.0 + ab));
  EXPECT_LE(ab, std::min(area(a), area(b)) + 1e-6);
}

TEST_P(GeomSweep, WelzlRadiusNeverBelowPairwiseHalfDistance) {
  std::vector<Vec2> pts;
  const int n = 4 + rng_.uniform_int(0, 30);
  for (int i = 0; i < n; ++i)
    pts.push_back({rng_.uniform(-50, 50), rng_.uniform(-50, 50)});
  const Circle mec = min_enclosing_circle(pts);
  double maxpair = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = i + 1; j < pts.size(); ++j)
      maxpair = std::max(maxpair, dist(pts[i], pts[j]));
  EXPECT_GE(mec.radius, maxpair / 2.0 - 1e-6);
  EXPECT_LE(mec.radius, maxpair + 1e-6);  // crude upper bound
}

TEST_P(GeomSweep, CentroidInsideConvexPolygon) {
  Ring poly = random_convex(rng_, 9, 60.0);
  if (poly.size() < 3) GTEST_SKIP();
  EXPECT_TRUE(contains_point(poly, centroid(poly), 1e-6));
}

TEST_P(GeomSweep, ProjectToBoundaryIsOnBoundary) {
  Ring poly = random_convex(rng_, 7, 60.0);
  if (poly.size() < 3) GTEST_SKIP();
  for (int t = 0; t < 10; ++t) {
    Vec2 p{rng_.uniform(-30, 90), rng_.uniform(-30, 90)};
    const Vec2 proj = project_to_boundary(poly, p);
    EXPECT_NEAR(dist_to_boundary(poly, proj), 0.0, 1e-9);
    // Projection is the nearest boundary point.
    EXPECT_NEAR(dist(p, proj), dist_to_boundary(poly, p), 1e-9);
  }
}

TEST_P(GeomSweep, CircleCircleIntersectionsOnBothCircles) {
  for (int t = 0; t < 10; ++t) {
    Circle a{{rng_.uniform(0, 20), rng_.uniform(0, 20)},
             rng_.uniform(1, 10)};
    Circle b{{rng_.uniform(0, 20), rng_.uniform(0, 20)},
             rng_.uniform(1, 10)};
    for (Vec2 p : circle_circle_intersections(a, b)) {
      EXPECT_NEAR(dist(p, a.center), a.radius, 1e-6);
      EXPECT_NEAR(dist(p, b.center), b.radius, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeomSweep, ::testing::Range(0, 12));

// ------------------------------------------- bisector ring classifier ----
//
// bisector_side must give bisector_side_exact's answer on every ring; the
// cases below sit where the filter's band matters.

// v with each coordinate moved by kx / ky ulps.
Vec2 nudge(Vec2 v, int kx, int ky) {
  const double inf = std::numeric_limits<double>::infinity();
  for (; kx > 0; --kx) v.x = std::nextafter(v.x, inf);
  for (; kx < 0; ++kx) v.x = std::nextafter(v.x, -inf);
  for (; ky > 0; --ky) v.y = std::nextafter(v.y, inf);
  for (; ky < 0; ++ky) v.y = std::nextafter(v.y, -inf);
  return v;
}

struct SideCheck {
  long cases = 0, mismatches = 0;
  long seen[3] = {0, 0, 0};  // per RingSide
  std::string first;

  void check(Vec2 keep, Vec2 other, const Ring& ring) {
    ++cases;
    const RingSide want = bisector_side_exact(keep, other, ring);
    ++seen[static_cast<int>(want)];
    if (bisector_side(keep, other, ring) == want || mismatches++ > 0) return;
    std::ostringstream os;
    os.precision(17);
    os << "keep=" << keep << " other=" << other << " ring:";
    for (Vec2 v : ring) os << ' ' << v;
    first = os.str();
  }
};

TEST(BisectorSide, MatchesExactScanOnAndNearTheBisector) {
  laacad::Rng rng(2024);
  SideCheck c;
  // Offsets along the normal: on the line, at the +-kEps thresholds, and
  // well inside / outside.
  const double offsets[] = {0.0, kEps, -kEps, 2 * kEps, -2 * kEps, 1e-3, -1e-3};
  for (int t = 0; t < 20'000; ++t) {
    const double scale = std::pow(10.0, rng.uniform(-2.0, 4.0));
    const Vec2 keep{rng.uniform(0, scale), rng.uniform(0, scale)};
    const Vec2 other{rng.uniform(0, scale), rng.uniform(0, scale)};
    if (dist(keep, other) < 1e-6 * scale) continue;
    const HalfPlane hp = bisector_halfplane(keep, other);
    Ring ring;
    const int n = 3 + t % 4;
    for (int a = 0; a < n; ++a) {
      const double along = rng.uniform(-scale, scale);
      const double off = offsets[rng.uniform_int(0, 6)];
      const int kx = rng.uniform_int(-4, 4), ky = rng.uniform_int(-4, 4);
      ring.push_back(nudge(hp.point + hp.tangent() * along + hp.normal * off,
                           kx, ky));
    }
    c.check(keep, other, ring);
    // The same ring with every vertex pushed inside: only the -kEps band
    // (the touch test) is in play.
    for (Vec2& v : ring) v -= hp.normal * (kEps + std::abs(hp.signed_dist(v)));
    c.check(keep, other, ring);
  }
  EXPECT_EQ(c.mismatches, 0) << c.first;
  EXPECT_GT(c.seen[static_cast<int>(RingSide::kInside)], 100);
  EXPECT_GT(c.seen[static_cast<int>(RingSide::kTouch)], 100);
  EXPECT_GT(c.seen[static_cast<int>(RingSide::kCut)], 100);
}

TEST(BisectorSide, MatchesExactScanOnSeparatedCoLocatedSites) {
  laacad::Rng rng(2025);
  SideCheck c;
  for (int t = 0; t < 200; ++t) {
    // Stacks of coincident sites, pulled apart by separate_sites.
    std::vector<Vec2> sites;
    for (int g = 0; g < 3; ++g) {
      const Vec2 at{rng.uniform(0, 100), rng.uniform(0, 100)};
      for (int m = 0; m < 2 + t % 3; ++m) sites.push_back(at);
    }
    sites = vor::separate_sites(std::move(sites));
    for (std::size_t h = 0; h < sites.size(); ++h)
      for (std::size_t j = 0; j < sites.size(); ++j) {
        if (h == j) continue;
        // A small ring around the pair, and the sites themselves.
        const Vec2 mid = midpoint(sites[h], sites[j]);
        const double r = std::pow(10.0, rng.uniform(-9.0, 1.0));
        c.check(sites[h], sites[j],
                {mid + Vec2{r, 0}, mid + Vec2{0, r}, mid - Vec2{r, 0},
                 mid - Vec2{0, r}});
        c.check(sites[h], sites[j], sites);
      }
  }
  EXPECT_EQ(c.mismatches, 0) << c.first;
  EXPECT_GT(c.cases, 1000);
}

TEST(BisectorSide, SeparationBelowKEpsTakesTheExactPath) {
  // |e| < kEps: the exact normal is normalized()'s (0,0), so every signed
  // distance is 0 and the ring touches.
  const Vec2 keep{5, 5};
  const Vec2 other = keep + Vec2{3e-10, 4e-10};
  const Ring ring = {{0, 0}, {10, 0}, {10, 10}, {0, 10}};
  auto& pc = laacad::perf::counters();
  const std::uint64_t before = pc.exact_fallbacks;
  EXPECT_EQ(bisector_side_exact(keep, other, ring), RingSide::kTouch);
  EXPECT_EQ(bisector_side(keep, other, ring), RingSide::kTouch);
  EXPECT_EQ(pc.exact_fallbacks, before + 1);
  // Just above the 2 kEps cutoff the filter decides on its own.
  const Vec2 far = keep + Vec2{3e-9, 0};
  EXPECT_EQ(bisector_side(keep, far, ring), bisector_side_exact(keep, far, ring));
  EXPECT_EQ(pc.exact_fallbacks, before + 1);
}

}  // namespace
}  // namespace laacad::geom
