// Localized boundary-detection service.
//
// The paper delegates network-boundary detection to UNFOLD [29]; we
// substitute a classic angular-gap heuristic with the same contract: using
// only 1-hop information, decide whether a node sits on the boundary of the
// region currently occupied by the network. A's own boundary needs no
// verdict: Algorithm 2 treats it as a natural boundary (Sec. IV-B1) by
// skipping arc samples outside A.
//
// The angular scan looks at neighbours within the transmission range
// gamma. A node is a network-boundary node when the largest angular gap
// between directions to its neighbours exceeds pi/2 and points into A.
#pragma once

#include <vector>

#include "wsn/network.hpp"

namespace laacad::common {
class ThreadPool;
}

namespace laacad::wsn {

class CommModel;

struct BoundaryInfo {
  bool network_boundary = false;
};

/// Classify one node over net.one_hop_neighbors(i). Every entry point
/// below runs the same classification over that neighbour list.
BoundaryInfo detect_boundary(const Network& net, NodeId i);

/// Classify all nodes, in id order, over a connectivity snapshot's
/// adjacency (which holds exactly the one_hop_neighbors lists). A non-null
/// `pool` classifies them on its threads; each verdict depends on node i
/// alone and lands in slot i, so the result is the same for every thread
/// count.
std::vector<BoundaryInfo> detect_all_boundaries(
    const CommModel& comm, common::ThreadPool* pool = nullptr);

/// The same, building the snapshot first.
std::vector<BoundaryInfo> detect_all_boundaries(
    const Network& net, common::ThreadPool* pool = nullptr);

}  // namespace laacad::wsn
