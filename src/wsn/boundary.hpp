// Localized boundary-detection service.
//
// The paper delegates network-boundary detection to UNFOLD [29]; we
// substitute a classic angular-gap heuristic with the same contract: using
// only 1-hop information, decide whether a node sits on the boundary of the
// region currently occupied by the network. A node also counts as a boundary
// node when it is close to the boundary of the target area A itself
// (Sec. IV-B1: "A's boundary serves as a natural boundary").
#pragma once

#include <vector>

#include "wsn/network.hpp"

namespace laacad::common {
class ThreadPool;
}

namespace laacad::wsn {

struct BoundaryConfig {
  /// Neighbour radius for the angular scan (defaults to the transmission
  /// range when <= 0).
  double radius = -1.0;
  /// A node is a network-boundary node when the largest angular gap between
  /// directions to its neighbours exceeds this (radians).
  double gap_threshold = M_PI / 2.0;
  /// Distance to the area boundary below which a node counts as an
  /// area-boundary node (defaults to gamma when <= 0).
  double area_margin = -1.0;
};

struct BoundaryInfo {
  bool network_boundary = false;
  bool area_boundary = false;
  bool any() const { return network_boundary || area_boundary; }
};

/// Classify one node.
BoundaryInfo detect_boundary(const Network& net, NodeId i,
                             const BoundaryConfig& cfg = {});

/// Classify all nodes, in id order. A non-null `pool` classifies them on
/// its threads; each verdict depends on node i alone and lands in slot i, so
/// the result is the same for every thread count.
std::vector<BoundaryInfo> detect_all_boundaries(
    const Network& net, const BoundaryConfig& cfg = {},
    common::ThreadPool* pool = nullptr);

}  // namespace laacad::wsn
