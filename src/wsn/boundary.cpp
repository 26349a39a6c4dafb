#include "wsn/boundary.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"

namespace laacad::wsn {

namespace {

constexpr double kGapThreshold = M_PI / 2.0;  ///< radians

}  // namespace

BoundaryInfo detect_boundary(const Network& net, NodeId i) {
  BoundaryInfo info;
  const double radius = net.gamma();

  const geom::Vec2 ui = net.position(i);
  if (net.domain().dist_to_boundary(ui) <= radius) info.area_boundary = true;

  auto ids = net.nodes_within(ui, radius);
  std::erase(ids, static_cast<int>(i));
  if (ids.empty()) {
    info.network_boundary = true;
    return info;
  }
  std::vector<double> angles;
  angles.reserve(ids.size());
  for (int j : ids) angles.push_back((net.position(j) - ui).angle());
  std::sort(angles.begin(), angles.end());
  double max_gap = 2.0 * M_PI - (angles.back() - angles.front());
  double gap_mid = angles.back() + 0.5 * max_gap;  // wrap-around gap
  for (std::size_t a = 0; a + 1 < angles.size(); ++a) {
    const double gap = angles[a + 1] - angles[a];
    if (gap > max_gap) {
      max_gap = gap;
      gap_mid = angles[a] + 0.5 * gap;
    }
  }
  // A wide gap marks a *network* boundary only when the uncovered direction
  // points into the target area; a gap facing A's exterior is handled by
  // the natural-boundary rule (the arc check skips out-of-area samples), so
  // flagging it would wrongly suppress in-area checks at equilibrium.
  const geom::Vec2 probe =
      ui + geom::Vec2{std::cos(gap_mid), std::sin(gap_mid)} * radius;
  info.network_boundary =
      max_gap > kGapThreshold && net.domain().contains(probe);
  return info;
}

std::vector<BoundaryInfo> detect_all_boundaries(const Network& net,
                                                common::ThreadPool* pool) {
  std::vector<BoundaryInfo> out(static_cast<std::size_t>(net.size()));
  common::parallel_for(pool, net.size(), [&](int i) {
    out[static_cast<std::size_t>(i)] = detect_boundary(net, i);
  });
  return out;
}

}  // namespace laacad::wsn
