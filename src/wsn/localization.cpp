#include "wsn/localization.hpp"

#include <cmath>

namespace laacad::wsn {

std::vector<geom::Vec2> local_frame(const Network& net, NodeId i,
                                    const std::vector<int>& ids,
                                    double range_noise, Rng& rng) {
  const geom::Vec2 ui = net.position(i);
  std::vector<geom::Vec2> out;
  out.reserve(ids.size());
  for (int j : ids) {
    const geom::Vec2 rel = net.position(j) - ui;
    double r = rel.norm();
    const double theta = rel.angle();
    if (range_noise > 0.0) r *= 1.0 + rng.gaussian(0.0, range_noise);
    out.push_back({r * std::cos(theta), r * std::sin(theta)});
  }
  return out;
}

}  // namespace laacad::wsn
