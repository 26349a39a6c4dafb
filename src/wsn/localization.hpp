// Local coordinate system simulation.
//
// LAACAD does not need global positions: each node builds a local frame from
// ranging to its neighbours (the paper cites the MDS embedding of Shang &
// Ruml [28]). We model the *product* of that service — neighbour positions
// expressed in the node's own frame — with an optional multiplicative
// ranging-noise knob, so tests can quantify LAACAD's robustness to imperfect
// localization without re-implementing MDS itself (documented substitution,
// see DESIGN.md).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "wsn/network.hpp"

namespace laacad::wsn {

/// Positions of `ids` relative to node i's own location (node i maps to the
/// origin of its local frame). Each range is scaled by 1 + N(0, range_noise)
/// drawn from `rng`; range_noise = 0 is perfect ranging and draws nothing.
std::vector<geom::Vec2> local_frame(const Network& net, NodeId i,
                                    const std::vector<int>& ids,
                                    double range_noise, Rng& rng);

}  // namespace laacad::wsn
