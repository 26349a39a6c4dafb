#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/rng.hpp"
#include "geometry/polygon.hpp"
#include "geometry/welzl.hpp"

namespace laacad::geom {
namespace {

TEST(Welzl, EmptyAndSingle) {
  EXPECT_FALSE(min_enclosing_circle({}).valid());
  Circle c = min_enclosing_circle({{3, 4}});
  EXPECT_EQ(c.center, Vec2(3, 4));
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
}

TEST(Welzl, TwoPoints) {
  Circle c = min_enclosing_circle({{0, 0}, {4, 0}});
  EXPECT_NEAR(c.center.x, 2.0, 1e-9);
  EXPECT_NEAR(c.radius, 2.0, 1e-9);
}

TEST(Welzl, EquilateralTriangle) {
  const double h = std::sqrt(3.0) / 2.0;
  Circle c = min_enclosing_circle({{0, 0}, {1, 0}, {0.5, h}});
  EXPECT_NEAR(c.radius, 1.0 / std::sqrt(3.0), 1e-9);
  EXPECT_NEAR(c.center.x, 0.5, 1e-9);
}

TEST(Welzl, ObtuseTriangleUsesLongestSide) {
  // For an obtuse triangle the MEC is the diameter circle of the long side.
  Circle c = min_enclosing_circle({{0, 0}, {10, 0}, {5, 0.5}});
  EXPECT_NEAR(c.radius, 5.0, 1e-6);
  EXPECT_NEAR(c.center.x, 5.0, 1e-6);
}

TEST(Welzl, SquareCircumcircle) {
  Circle c = min_enclosing_circle({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  EXPECT_NEAR(c.center.x, 1.0, 1e-9);
  EXPECT_NEAR(c.center.y, 1.0, 1e-9);
  EXPECT_NEAR(c.radius, std::sqrt(2.0), 1e-9);
}

TEST(Welzl, CollinearPoints) {
  Circle c = min_enclosing_circle({{0, 0}, {1, 0}, {2, 0}, {5, 0}});
  EXPECT_NEAR(c.radius, 2.5, 1e-9);
  EXPECT_NEAR(c.center.x, 2.5, 1e-9);
}

TEST(Welzl, DuplicatePoints) {
  Circle c = min_enclosing_circle({{1, 1}, {1, 1}, {1, 1}});
  EXPECT_NEAR(c.radius, 0.0, 1e-12);
}

TEST(Welzl, DeterministicAcrossCalls) {
  std::vector<Vec2> pts;
  laacad::Rng rng(3);
  for (int i = 0; i < 50; ++i)
    pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  Circle a = min_enclosing_circle(pts);
  Circle b = min_enclosing_circle(pts);
  EXPECT_EQ(a.center, b.center);
  EXPECT_EQ(a.radius, b.radius);
}

// The per-size permutation cache reproduces the seeded in-place shuffle bit
// for bit: every size up to 300 (and one beyond the cache cap, which
// shuffles directly), against a reference that seeds a generator and
// shuffles the points themselves.
TEST(Welzl, CachedShuffleMatchesSeededInPlaceShuffle) {
  laacad::Rng rng(17);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 300; ++n) sizes.push_back(n);
  sizes.push_back(1100);
  for (const std::size_t n : sizes) {
    std::vector<Vec2> pts;
    for (std::size_t i = 0; i < n; ++i)
      pts.push_back({rng.uniform(-50, 50), rng.uniform(-50, 50)});
    std::vector<Vec2> shuffled = pts;
    std::mt19937_64 gen(0x5eed5eedULL ^ n);
    std::shuffle(shuffled.begin(), shuffled.end(), gen);
    const Circle ref = min_enclosing_circle_in_order(shuffled);
    // Twice: the first call fills the cache, the second reads it.
    for (int pass = 0; pass < 2; ++pass) {
      const Circle c = min_enclosing_circle(pts);
      EXPECT_EQ(c.center, ref.center) << "n=" << n;
      EXPECT_EQ(c.radius, ref.radius) << "n=" << n;
    }
  }
}

// Property sweep: for random point clouds the MEC (a) contains all points,
// (b) is supported by at least two points on its boundary, and (c) is no
// larger than a trivial bounding circle.
class WelzlProperty : public ::testing::TestWithParam<int> {};

TEST_P(WelzlProperty, ContainsAllAndTight) {
  laacad::Rng rng(1000 + GetParam());
  std::vector<Vec2> pts;
  const int n = 3 + rng.uniform_int(0, 200);
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});

  Circle c = min_enclosing_circle(pts);
  int on_boundary = 0;
  for (Vec2 p : pts) {
    const double d = dist(c.center, p);
    EXPECT_LE(d, c.radius + 1e-6 * (1.0 + c.radius));
    if (d >= c.radius - 1e-5 * (1.0 + c.radius)) ++on_boundary;
  }
  EXPECT_GE(on_boundary, 2);

  // Compare against a crude but valid enclosing circle (bbox circumcircle).
  BBox bb = bounding_box(pts);
  const double crude = 0.5 * std::hypot(bb.width(), bb.height());
  EXPECT_LE(c.radius, crude + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WelzlProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace laacad::geom
