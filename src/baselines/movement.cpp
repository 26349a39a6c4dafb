#include "baselines/movement.hpp"

namespace laacad::base {

using geom::Vec2;

Vec2 centroid_target(const core::DominatingRegion& region, Vec2 /*position*/) {
  return region.centroid();
}

core::TargetFn vor_target(double sensing_range) {
  return [sensing_range](const core::DominatingRegion& region, Vec2 ui) {
    double far_d = 0.0;
    Vec2 far_v = ui;
    for (const Vec2 v : region.vertices()) {
      const double d = geom::dist(ui, v);
      if (d > far_d) {
        far_d = d;
        far_v = v;
      }
    }
    if (far_d <= sensing_range) return ui;
    return ui + (far_v - ui).normalized() * (far_d - sensing_range);
  };
}

}  // namespace laacad::base
