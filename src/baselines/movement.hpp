// Movement-control baselines, as target rules for core::Engine
// (LaacadConfig::target):
//
// * Lloyd / centroid rule: move to the area centroid of the dominating
//   region instead of its Chebyshev center — the classic CVT iteration,
//   used here as an ablation of LAACAD's target rule (Sec. IV-C argues the
//   Chebyshev center is the optimal choice for the min-max objective).
// * Wang, Cao & La Porta [9] VOR heuristic (1-coverage, fixed range):
//   a node whose order-1 Voronoi cell contains a point farther than its
//   sensing range moves toward the farthest cell vertex, stopping at
//   range-distance from it.
//
// Both run on Algorithm 1's own round loop and region machinery, so the
// comparison isolates the *target rule*, not the substrate.
#pragma once

#include "laacad/engine.hpp"

namespace laacad::base {

/// Lloyd / CVT rule: the area centroid of the dominating region.
geom::Vec2 centroid_target(const core::DominatingRegion& region,
                           geom::Vec2 position);

/// Wang et al. [9] farthest-vertex pursuit at a fixed `sensing_range`:
/// move toward the farthest region vertex, stopping `sensing_range` short
/// of it; hold position once every vertex is in range. A 1-coverage
/// heuristic: run it with LaacadConfig::k = 1, so the regions are order-1
/// Voronoi cells.
core::TargetFn vor_target(double sensing_range);

}  // namespace laacad::base
