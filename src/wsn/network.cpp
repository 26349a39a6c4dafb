#include "wsn/network.hpp"

#include <algorithm>
#include <utility>

namespace laacad::wsn {

using geom::Vec2;

Network::Network(const Domain* domain, std::vector<Vec2> positions,
                 double gamma)
    : domain_(domain),
      gamma_(gamma),
      pos_(std::move(positions)),
      range_(pos_.size(), 0.0) {
  for (Vec2& p : pos_) p = domain_->project_inside(p);
}

void Network::set_position(NodeId i, Vec2 p) {
  pos_[static_cast<std::size_t>(i)] = domain_->project_inside(p);
  grid_dirty_.store(true, std::memory_order_release);
}

void Network::set_sensing_range(NodeId i, double r) {
  range_[static_cast<std::size_t>(i)] = r;
}

NodeId Network::add_node(Vec2 p) {
  pos_.push_back(domain_->project_inside(p));
  range_.push_back(0.0);
  grid_dirty_.store(true, std::memory_order_release);
  return static_cast<NodeId>(pos_.size() - 1);
}

void Network::rebind_domain(const Domain* domain) {
  domain_ = domain;
  for (Vec2& p : pos_) p = domain_->project_inside(p);
  grid_dirty_.store(true, std::memory_order_release);
}

void Network::remove_node(NodeId i) {
  pos_.erase(pos_.begin() + i);
  range_.erase(range_.begin() + i);
  grid_dirty_.store(true, std::memory_order_release);
}

const SpatialGrid& Network::grid(common::ThreadPool* pool) const {
  // Double-checked rebuild: concurrent readers race only on the atomic flag;
  // the first one in re-bins in place (slot arrays reused round over round)
  // and publishes with a release store the others acquire.
  if (grid_dirty_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(grid_mutex_);
    if (grid_dirty_.load(std::memory_order_relaxed)) {
      // Cell size ~ gamma works for both comm queries and k-nearest.
      grid_.rebuild(pos_, std::max(gamma_, 1.0), pool);
      grid_dirty_.store(false, std::memory_order_release);
    }
  }
  return grid_;
}

void Network::warm_grid(common::ThreadPool* pool) const { (void)grid(pool); }

std::vector<int> Network::nodes_within(Vec2 q, double radius) const {
  return grid().within(q, radius);
}

std::vector<int> Network::k_nearest(Vec2 q, int k, int exclude) const {
  return grid().k_nearest(q, k, exclude);
}

std::vector<int> Network::one_hop_neighbors(NodeId i) const {
  auto ids = grid().within(position(i), gamma_);
  std::erase(ids, static_cast<int>(i));
  return ids;
}

}  // namespace laacad::wsn
