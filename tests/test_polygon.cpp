#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "geometry/polygon.hpp"

namespace laacad::geom {
namespace {

Ring unit_square() { return {{0, 0}, {1, 0}, {1, 1}, {0, 1}}; }

TEST(Polygon, SignedAreaOrientation) {
  Ring sq = unit_square();
  EXPECT_NEAR(signed_area(sq), 1.0, 1e-12);
  std::reverse(sq.begin(), sq.end());
  EXPECT_NEAR(signed_area(sq), -1.0, 1e-12);
  EXPECT_NEAR(area(sq), 1.0, 1e-12);
}

TEST(Polygon, MakeCcwFixesOrientation) {
  Ring sq = unit_square();
  std::reverse(sq.begin(), sq.end());
  make_ccw(sq);
  EXPECT_GT(signed_area(sq), 0.0);
}

TEST(Polygon, CentroidSquare) {
  Vec2 c = centroid(unit_square());
  EXPECT_NEAR(c.x, 0.5, 1e-12);
  EXPECT_NEAR(c.y, 0.5, 1e-12);
}

TEST(Polygon, CentroidLShape) {
  // L-shape: unit square plus a unit square to its right along the bottom.
  Ring l = {{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}};
  EXPECT_NEAR(area(l), 3.0, 1e-12);
  Vec2 c = centroid(l);
  // By symmetry about the diagonal y = x the centroid is on that line.
  EXPECT_NEAR(c.x, c.y, 1e-12);
}

TEST(Polygon, BoundingBox) {
  BBox b = bounding_box({{1, 2}, {-3, 5}, {0, -1}});
  EXPECT_EQ(b.lo, Vec2(-3, -1));
  EXPECT_EQ(b.hi, Vec2(1, 5));
  EXPECT_DOUBLE_EQ(b.width(), 4.0);
  EXPECT_DOUBLE_EQ(b.height(), 6.0);
  EXPECT_TRUE(b.contains({0, 0}));
  EXPECT_FALSE(b.contains({2, 0}));
  BBox g = b.inflated(1.0);
  EXPECT_TRUE(g.contains({2, 0}));
}

TEST(Polygon, ContainsPointSquare) {
  Ring sq = unit_square();
  EXPECT_TRUE(contains_point(sq, {0.5, 0.5}));
  EXPECT_FALSE(contains_point(sq, {1.5, 0.5}));
  EXPECT_FALSE(contains_point(sq, {-0.1, 0.5}));
  // Boundary points count as inside.
  EXPECT_TRUE(contains_point(sq, {1.0, 0.5}));
  EXPECT_TRUE(contains_point(sq, {0.0, 0.0}));
}

TEST(Polygon, ContainsPointConcave) {
  Ring l = {{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}};
  EXPECT_TRUE(contains_point(l, {0.5, 1.5}));
  EXPECT_TRUE(contains_point(l, {1.5, 0.5}));
  EXPECT_FALSE(contains_point(l, {1.5, 1.5}));  // the notch
}

// contains_point as it read with the edge pass ahead of the crossing test:
// the reference the crossing-first body must agree with for every eps.
bool contains_point_edges_first(const Ring& ring, Vec2 p, double eps) {
  const std::size_t n = ring.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (dist_point_segment(p, ring[i], ring[(i + 1) % n]) <= eps) return true;
  }
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Vec2 a = ring[i], b = ring[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double t = (p.y - a.y) / (b.y - a.y);
      const double xint = a.x + t * (b.x - a.x);
      if (p.x < xint) inside = !inside;
    }
  }
  return inside;
}

TEST(Polygon, ContainsPointMatchesEdgesFirstReference) {
  Rng rng(91);
  int checked = 0, boundary_only = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Ring ring;
    if (trial % 2 == 0) {
      std::vector<Vec2> pts;
      for (int i = 0; i < 12; ++i)
        pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
      ring = convex_hull(pts);
    } else {
      // Star-shaped with random radii: simple and, in general, concave.
      const int n = 5 + trial % 9;
      for (int i = 0; i < n; ++i) {
        const double a = 2.0 * M_PI * i / n;
        const double r = rng.uniform(1.0, 5.0);
        ring.push_back({5 + r * std::cos(a), 5 + r * std::sin(a)});
      }
    }
    std::vector<Vec2> probes;
    for (int i = 0; i < 40; ++i)
      probes.push_back({rng.uniform(-1, 11), rng.uniform(-1, 11)});
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Vec2 a = ring[i], b = ring[(i + 1) % ring.size()];
      const Vec2 out_normal = Vec2{(b - a).y, -(b - a).x}.normalized();
      probes.push_back(a);                   // vertex
      probes.push_back({a.x + 1.0, a.y});    // ray through a vertex
      probes.push_back(lerp(a, b, 0.5));     // on the edge
      probes.push_back(lerp(a, b, rng.uniform01()));
      for (double off : {1e-12, 5e-10, 2e-9, 5e-4, 2e-3})
        for (double side : {-1.0, 1.0})
          probes.push_back(lerp(a, b, 0.3) + out_normal * (side * off));
    }
    for (double eps : {0.0, kEps, 1e-3}) {
      for (Vec2 p : probes) {
        const bool want = contains_point_edges_first(ring, p, eps);
        ASSERT_EQ(contains_point(ring, p, eps), want)
            << "trial " << trial << " eps " << eps << " p (" << p.x << ", "
            << p.y << ")";
        ++checked;
        // A negative eps turns the edge pass off: parity alone.
        if (want && !contains_point(ring, p, -1.0)) ++boundary_only;
      }
    }
  }
  EXPECT_GT(checked, 10000);
  EXPECT_GT(boundary_only, 500);  // probes only the edge pass accepts
}

TEST(Polygon, DistToBoundaryAndProjection) {
  Ring sq = unit_square();
  EXPECT_NEAR(dist_to_boundary(sq, {0.5, 0.5}), 0.5, 1e-12);
  EXPECT_NEAR(dist_to_boundary(sq, {2.0, 0.5}), 1.0, 1e-12);
  Vec2 p = project_to_boundary(sq, {2.0, 0.5});
  EXPECT_NEAR(p.x, 1.0, 1e-12);
  EXPECT_NEAR(p.y, 0.5, 1e-12);
}

TEST(ClipRing, HalfSquare) {
  HalfPlane hp{{0.5, 0.0}, {1.0, 0.0}};  // keep x <= 0.5
  Ring half = clip_ring(unit_square(), hp);
  EXPECT_NEAR(area(half), 0.5, 1e-12);
  for (Vec2 v : half) EXPECT_LE(v.x, 0.5 + 1e-9);
}

TEST(ClipRing, NoCutLeavesRingIntact) {
  HalfPlane hp{{5.0, 0.0}, {1.0, 0.0}};  // keep x <= 5
  Ring r = clip_ring(unit_square(), hp);
  EXPECT_NEAR(area(r), 1.0, 1e-12);
}

TEST(ClipRing, FullCutEmpties) {
  HalfPlane hp{{-1.0, 0.0}, {1.0, 0.0}};  // keep x <= -1
  EXPECT_TRUE(clip_ring(unit_square(), hp).empty());
}

TEST(ClipRing, DiagonalCut) {
  // Keep the side of x + y <= 1 (normal (1,1)/sqrt2 through (1,0)).
  HalfPlane hp{{1.0, 0.0}, Vec2{1.0, 1.0}.normalized()};
  Ring tri = clip_ring(unit_square(), hp);
  EXPECT_NEAR(area(tri), 0.5, 1e-12);
}

TEST(SutherlandHodgman, SquareIntersection) {
  Ring window = {{0.5, 0.5}, {1.5, 0.5}, {1.5, 1.5}, {0.5, 1.5}};
  Ring out = sutherland_hodgman(unit_square(), window);
  EXPECT_NEAR(area(out), 0.25, 1e-12);
}

TEST(SutherlandHodgman, ConcaveSubjectAreaIsCorrect) {
  Ring l = {{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}};
  Ring window = {{0.5, 0.5}, {2.5, 0.5}, {2.5, 2.5}, {0.5, 2.5}};
  Ring out = sutherland_hodgman(l, window);
  // Intersection: L-shape cut at x,y >= 0.5 -> area 3 - (0.5*2 + 0.5*2 - .25)
  // = pieces: [0.5,2]x[0.5,1] (1.5*0.5) + [0.5,1]x[1,2] (0.5*1) = 1.25.
  EXPECT_NEAR(area(out), 1.25, 1e-9);
}

TEST(SutherlandHodgman, DisjointReturnsEmpty) {
  Ring window = {{5, 5}, {6, 5}, {6, 6}, {5, 6}};
  EXPECT_TRUE(sutherland_hodgman(unit_square(), window).empty());
}

TEST(DedupeRing, RemovesDuplicatesAndDegenerates) {
  Ring r = {{0, 0}, {0, 0}, {1, 0}, {1, 0}, {1, 1}, {0, 0}};
  Ring d = dedupe_ring(r);
  EXPECT_EQ(d.size(), 3u);
  // Fewer than three distinct vertices collapses to empty.
  EXPECT_TRUE(dedupe_ring({{0, 0}, {1e-12, 0}, {0, 1e-12}}).empty());
}

TEST(Ngon, CircumscribedContainsCircle) {
  const Vec2 c{3, 4};
  const double r = 2.0;
  Ring ngon = circumscribed_ngon(c, r, 24);
  // Every circle point must be inside the polygon.
  for (int i = 0; i < 360; i += 5) {
    const double a = i * M_PI / 180.0;
    EXPECT_TRUE(contains_point(ngon, c + Vec2{std::cos(a), std::sin(a)} * r));
  }
}

TEST(Ngon, InscribedVerticesOnCircle) {
  Ring ngon = inscribed_ngon({1, 1}, 3.0, 12);
  ASSERT_EQ(ngon.size(), 12u);
  for (Vec2 v : ngon) EXPECT_NEAR(dist(v, {1, 1}), 3.0, 1e-12);
}

TEST(BoxRing, MatchesBBox) {
  BBox b{{0, 0}, {2, 3}};
  Ring r = box_ring(b);
  EXPECT_NEAR(area(r), 6.0, 1e-12);
  EXPECT_GT(signed_area(r), 0.0);
}

}  // namespace
}  // namespace laacad::geom
