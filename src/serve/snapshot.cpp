#include "serve/snapshot.hpp"

#include <algorithm>

namespace laacad::serve {

Snapshot::Snapshot(const wsn::Domain& domain, const wsn::Network& live,
                   Meta meta)
    : meta_(meta), domain_(std::make_unique<wsn::Domain>(domain)) {
  net_ = std::make_unique<wsn::Network>(domain_.get(), live.positions(),
                                        live.gamma());
  for (int i = 0; i < net_->size(); ++i)
    net_->set_sensing_range(i, live.sensing_range(i));
  load_ = wsn::load_report(*net_);
  // Build the grid now, on the publisher's thread: snapshot queries are
  // const and lock-free afterwards.
  net_->warm_grid();
}

std::vector<NeighborInfo> Snapshot::closest_nodes(geom::Vec2 q, int k) const {
  std::vector<NeighborInfo> out;
  if (k <= 0) return out;
  const auto ids = net_->k_nearest(q, std::min(k, net_->size()));
  out.reserve(ids.size());
  for (const int id : ids) {
    NeighborInfo info;
    info.id = id;
    info.pos = net_->position(id);
    info.sensing_range = net_->sensing_range(id);
    info.dist = (info.pos - q).norm();
    out.push_back(info);
  }
  return out;
}

int Snapshot::coverage_depth(geom::Vec2 q) const {
  if (load_.max_range <= 0.0) return 0;
  int depth = 0;
  for (const int id : net_->nodes_within(q, load_.max_range)) {
    if (geom::dist_le(net_->position(id), q, net_->sensing_range(id))) ++depth;
  }
  return depth;
}

}  // namespace laacad::serve
