// The WSN itself: a set of mobile sensor nodes in a domain with a common
// transmission range gamma (Sec. III-A).
//
// Sensor node model (Sec. III-A of the paper): omnidirectional disk sensing
// with a tunable range, a common transmission range, and motion capability.
// A node is therefore exactly two pieces of state, and the network stores
// exactly two per-node columns: the location u_i (`positions()`, metres)
// and the sensing range r_i (`sensing_ranges()`, tuned at algorithm
// termination). A node's id is its index into both. Every mutation goes
// through the setters below, which keep the columns the same length and
// invalidate the spatial index when a position changes; there is
// deliberately no mutable accessor.
//
// Threading contract: the spatial index behind the const query methods
// (nodes_within / k_nearest / one_hop_neighbors) is built lazily after
// moves, guarded by a mutex with an atomic dirty flag, so any number of
// threads may issue const queries concurrently. Mutations (set_position,
// add_node, remove_node) must not overlap queries — the LAACAD round
// structure guarantees this (providers snapshot during the serial
// begin_round, the engine moves nodes in the serial reduction).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "geometry/vec2.hpp"
#include "wsn/domain.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::wsn {

using NodeId = std::int32_t;

class Network {
 public:
  /// Nodes are placed at `positions` (projected into the domain) with zero
  /// sensing range; gamma is the (identical) transmission range. The domain
  /// is shared, not owned.
  Network(const Domain* domain, std::vector<geom::Vec2> positions,
          double gamma);

  int size() const { return static_cast<int>(pos_.size()); }
  const Domain& domain() const { return *domain_; }
  double gamma() const { return gamma_; }

  geom::Vec2 position(NodeId i) const {
    return pos_[static_cast<std::size_t>(i)];
  }
  double sensing_range(NodeId i) const {
    return range_[static_cast<std::size_t>(i)];
  }
  const std::vector<geom::Vec2>& positions() const { return pos_; }
  const std::vector<double>& sensing_ranges() const { return range_; }

  /// Move node i (projected into the feasible domain); invalidates the grid.
  void set_position(NodeId i, geom::Vec2 p);
  void set_sensing_range(NodeId i, double r);

  /// Add a node at p; returns its id. Remove erases in place and shifts
  /// every higher id down by one (ids stay dense 0..n-1) — removal
  /// invalidates ids, so callers (the min-node planner, the scenario
  /// engine) use it only between full algorithm runs / redeployment phases.
  NodeId add_node(geom::Vec2 p);
  void remove_node(NodeId i);

  /// Swap the domain (boundary resize, new obstacle) and reproject every
  /// node into it. The new domain is shared, not owned — the caller keeps it
  /// alive for the network's lifetime. Invalidates the grid.
  void rebind_domain(const Domain* domain);

  /// Spatial queries over *current* positions (grid re-binned lazily after
  /// moves). Safe to call from multiple threads concurrently; see the
  /// threading contract above.
  std::vector<int> nodes_within(geom::Vec2 q, double radius) const;
  std::vector<int> k_nearest(geom::Vec2 q, int k, int exclude = -1) const;
  /// One-hop neighbours N(n_i): nodes within gamma, excluding i itself.
  std::vector<int> one_hop_neighbors(NodeId i) const;

  /// Force the lazy grid up to date now (e.g. before handing the network to
  /// concurrent readers, to keep the first query from paying the rebuild).
  /// A non-null `pool` fans the re-bin across its threads (bit-identical
  /// result; see SpatialGrid::rebuild) — the engine passes its round pool so
  /// index maintenance is not a serial O(n) wall at scale. The pool is used
  /// only for this call, never retained.
  void warm_grid(common::ThreadPool* pool = nullptr) const;

 private:
  const SpatialGrid& grid(common::ThreadPool* pool = nullptr) const;

  const Domain* domain_;
  double gamma_;
  std::vector<geom::Vec2> pos_;  ///< u_i
  std::vector<double> range_;    ///< r_i
  mutable SpatialGrid grid_;
  mutable std::atomic<bool> grid_dirty_{true};
  mutable std::mutex grid_mutex_;
};

}  // namespace laacad::wsn
