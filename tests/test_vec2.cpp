#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/perf_counters.hpp"
#include "geometry/vec2.hpp"

namespace laacad::geom {
namespace {

TEST(Vec2, ArithmeticOperators) {
  Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, Vec2(4.0, 1.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 3.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(2.0 * a, Vec2(2.0, 4.0));
  EXPECT_EQ(a / 2.0, Vec2(0.5, 1.0));
  EXPECT_EQ(-a, Vec2(-1.0, -2.0));
}

TEST(Vec2, CompoundAssignment) {
  Vec2 a{1.0, 1.0};
  a += {2.0, 3.0};
  EXPECT_EQ(a, Vec2(3.0, 4.0));
  a -= {1.0, 1.0};
  EXPECT_EQ(a, Vec2(2.0, 3.0));
  a *= 2.0;
  EXPECT_EQ(a, Vec2(4.0, 6.0));
}

TEST(Vec2, NormAndDistance) {
  Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(dist(Vec2{0, 0}, a), 5.0);
  EXPECT_DOUBLE_EQ(dist2(Vec2{0, 0}, a), 25.0);
}

TEST(Vec2, NormalizedUnitLength) {
  Vec2 a{3.0, 4.0};
  EXPECT_NEAR(a.normalized().norm(), 1.0, 1e-15);
  // Zero vector stays zero instead of dividing by zero.
  EXPECT_EQ(Vec2(0, 0).normalized(), Vec2(0, 0));
}

TEST(Vec2, DotAndCross) {
  Vec2 a{1.0, 0.0}, b{0.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(cross(a, b), 1.0);
  EXPECT_DOUBLE_EQ(cross(b, a), -1.0);
}

TEST(Vec2, PerpIsCcwRotation) {
  Vec2 a{1.0, 0.0};
  EXPECT_EQ(a.perp(), Vec2(0.0, 1.0));
  EXPECT_NEAR(dot(a, a.perp()), 0.0, 1e-15);
}

TEST(Vec2, RotatedQuarterTurn) {
  Vec2 a{1.0, 0.0};
  Vec2 r = a.rotated(M_PI / 2.0);
  EXPECT_NEAR(r.x, 0.0, 1e-15);
  EXPECT_NEAR(r.y, 1.0, 1e-15);
}

TEST(Vec2, AngleMatchesAtan2) {
  EXPECT_NEAR(Vec2(1, 1).angle(), M_PI / 4.0, 1e-15);
  EXPECT_NEAR(Vec2(-1, 0).angle(), M_PI, 1e-15);
}

TEST(Vec2, LerpAndMidpoint) {
  Vec2 a{0, 0}, b{10, 20};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), Vec2(5, 10));
  EXPECT_EQ(midpoint(a, b), Vec2(5, 10));
}

TEST(Orientation, BasicTurns) {
  EXPECT_EQ(orientation({0, 0}, {1, 0}, {1, 1}), 1);   // CCW
  EXPECT_EQ(orientation({0, 0}, {1, 0}, {1, -1}), -1); // CW
  EXPECT_EQ(orientation({0, 0}, {1, 0}, {2, 0}), 0);   // collinear
}

TEST(Orientation, EpsilonAbsorbsTinyPerturbation) {
  EXPECT_EQ(orientation({0, 0}, {1, 0}, {2, 1e-12}), 0);
}

TEST(AlmostEqual, Tolerance) {
  EXPECT_TRUE(almost_equal({1, 1}, {1 + 1e-10, 1 - 1e-10}));
  EXPECT_FALSE(almost_equal({1, 1}, {1 + 1e-6, 1}));
}

TEST(Vec2, StreamOutput) {
  std::ostringstream os;
  os << Vec2{1.5, -2.0};
  EXPECT_EQ(os.str(), "(1.5, -2)");
}

// ------------------------------------------------ filtered predicates ----
//
// Each predicate must return exactly what its hypot expression returns.
// Mismatches are counted and the first one reported, so a 10^6-case sweep
// costs one assertion.

double max_dist_reference(Vec2 ref, const std::vector<Vec2>& pts) {
  double m = 0.0;
  for (Vec2 p : pts) m = std::max(m, dist(ref, p));
  return m;
}

struct PredicateCheck {
  long mismatches = 0;
  std::string first;

  void pair(Vec2 a, Vec2 b, double r) {
    const bool lt = dist_lt(a, b, r), le = dist_le(a, b, r);
    if (lt != (dist(a, b) < r) || le != (dist(a, b) <= r))
      note("dist_lt/dist_le", a, b, r);
  }
  void triple(Vec2 p, Vec2 q, Vec2 v) {
    if (closer(p, q, v) != (dist(p, v) < dist(q, v)))
      note("closer", p, q, v.x);
  }
  void ring(Vec2 ref, const std::vector<Vec2>& pts) {
    const double got = max_dist(ref, pts), want = max_dist_reference(ref, pts);
    if (std::memcmp(&got, &want, sizeof got) != 0)
      note("max_dist", ref, pts.empty() ? ref : pts.front(), got);
  }
  void note(const char* what, Vec2 a, Vec2 b, double r) {
    if (mismatches++ > 0) return;
    std::ostringstream os;
    os.precision(17);
    os << what << " a=" << a << " b=" << b << " r=" << r;
    first = os.str();
  }
};

// r and its 1..4-ulp neighbours on either side of dist(a, b).
void check_around(PredicateCheck& c, Vec2 a, Vec2 b) {
  const double d = dist(a, b);
  c.pair(a, b, d);
  double up = d, down = d;
  for (int ulp = 1; ulp <= 4; ++ulp) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    c.pair(a, b, up);
    c.pair(a, b, down);
  }
}

TEST(DistPredicates, MatchHypotOnAMillionSeededCases) {
  std::mt19937_64 gen(0x5eed0001ULL);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_real_distribution<double> exponent(-3.0, 4.0);
  PredicateCheck c;
  for (int t = 0; t < 1'000'000; ++t) {
    const double scale = std::pow(10.0, exponent(gen));
    const Vec2 a{unit(gen) * scale, unit(gen) * scale};
    const Vec2 b{unit(gen) * scale, unit(gen) * scale};
    const double d = dist(a, b);
    switch (t % 4) {
      case 0: c.pair(a, b, std::abs(unit(gen)) * 3.0 * scale); break;
      case 1: c.pair(a, b, d * (1.0 + 2e-12 * unit(gen))); break;
      case 2: check_around(c, a, b); break;
      default: {
        // q at nearly p's distance from v: the closer filter's margin.
        const Vec2 v = b;
        const Vec2 q = v + (a - v).rotated(3.0 * unit(gen)) *
                               (1.0 + 4e-12 * unit(gen));
        c.triple(a, q, v);
        c.triple(q, a, v);
        c.triple(a, b, Vec2{unit(gen) * scale, unit(gen) * scale});
      }
    }
    if (t % 8 == 0) {
      std::vector<Vec2> pts(1 + t % 12);
      for (Vec2& p : pts) p = {unit(gen) * scale, unit(gen) * scale};
      c.ring(a, pts);
    }
  }
  EXPECT_EQ(c.mismatches, 0) << c.first;
}

TEST(DistPredicates, MatchHypotOnAdversarialCases) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  PredicateCheck c;
  const std::vector<Vec2> points = {
      {0, 0},        {3, 4},          {-3, 4},           {1e-160, 0},
      {0, 1e-160},   {3e-160, 4e-160}, {1e160, 0},       {-3e160, 4e160},
      {1e-300, 1e-300}, {5e-324, 0},  {nan, 0},          {0, nan},
      {inf, 0},      {-inf, 1},       {inf, nan},        {inf, -inf},
      {123.456, -7.89}, {1e154, 1e154}, {1e-154, 1e-154}};
  const std::vector<double> radii = {0.0,   -0.0, -1.0,   1e-300, 1e-160,
                                     1e-100, 1.0, 5.0,    1e100,  1e160,
                                     inf,   -inf, nan,    std::nextafter(5.0, 6.0)};
  for (Vec2 a : points)
    for (Vec2 b : points) {
      check_around(c, a, b);
      for (double r : radii) c.pair(a, b, r);
      for (Vec2 v : points) c.triple(a, b, v);
      c.ring(a, {b});
      c.ring(a, {b, a, b});
      c.ring(a, points);
    }
  // Zero vectors, and equal distances from v.
  c.pair({2, 2}, {2, 2}, 0.0);
  c.triple({2, 2}, {2, 2}, {2, 2});
  c.triple({0, 5}, {5, 0}, {0, 0});
  c.triple({3, 4}, {4, 3}, {0, 0});
  c.ring({1, 1}, {});
  c.ring({1, 1}, {{1, 1}, {1, 1}});
  // The two largest vertices of a ring within an ulp of each other.
  std::mt19937_64 gen(0x5eed0002ULL);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int t = 0; t < 20'000; ++t) {
    const Vec2 ref{unit(gen) * 100, unit(gen) * 100};
    const double d = 1.0 + 99.0 * std::abs(unit(gen));
    const Vec2 dir = Vec2{unit(gen), unit(gen)}.normalized();
    std::vector<Vec2> ring = {ref + dir * d,
                              ref + dir.perp() * std::nextafter(d, 200.0),
                              ref - dir * (d * 0.5)};
    c.ring(ref, ring);
    ring[1] = ref + dir.rotated(1.0 + unit(gen)) * d;
    c.ring(ref, ring);
  }
  EXPECT_EQ(c.mismatches, 0) << c.first;
}

TEST(DistPredicates, ExactPathIsCounted) {
  auto& pc = laacad::perf::counters();
  const std::uint64_t before = pc.exact_fallbacks;
  EXPECT_TRUE(dist_lt({0, 0}, {3, 4}, 6.0));   // decided by the filter
  EXPECT_FALSE(dist_lt({0, 0}, {3, 4}, 4.0));
  EXPECT_EQ(pc.exact_fallbacks, before);
  EXPECT_FALSE(dist_lt({0, 0}, {3, 4}, 5.0));  // inside the margin
  EXPECT_TRUE(dist_le({0, 0}, {3, 4}, 5.0));
  EXPECT_EQ(pc.exact_fallbacks, before + 2);
}

}  // namespace
}  // namespace laacad::geom
