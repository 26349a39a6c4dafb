#include <gtest/gtest.h>

#include "geometry/segment.hpp"

namespace laacad::geom {
namespace {

TEST(ClosestPoint, InteriorProjection) {
  Vec2 c = closest_point_on_segment({5, 3}, {0, 0}, {10, 0});
  EXPECT_NEAR(c.x, 5.0, 1e-12);
  EXPECT_NEAR(c.y, 0.0, 1e-12);
}

TEST(ClosestPoint, ClampsToEndpoints) {
  EXPECT_EQ(closest_point_on_segment({-3, 1}, {0, 0}, {10, 0}), Vec2(0, 0));
  EXPECT_EQ(closest_point_on_segment({14, -2}, {0, 0}, {10, 0}), Vec2(10, 0));
}

TEST(ClosestPoint, DegenerateSegment) {
  EXPECT_EQ(closest_point_on_segment({5, 5}, {1, 1}, {1, 1}), Vec2(1, 1));
}

TEST(DistPointSegment, Basic) {
  EXPECT_NEAR(dist_point_segment({5, 3}, {0, 0}, {10, 0}), 3.0, 1e-12);
  EXPECT_NEAR(dist_point_segment({-4, 3}, {0, 0}, {10, 0}), 5.0, 1e-12);
}

}  // namespace
}  // namespace laacad::geom
