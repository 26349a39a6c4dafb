// Exact(-up-to-epsilon) k-coverage verification via critical points.
//
// The coverage-depth function over the target area is piecewise constant on
// the arrangement of sensing circles and domain edges; its minimum is
// attained on a face whose boundary passes through a *critical point*:
// a circle–circle intersection, a circle–domain-edge intersection, a domain
// vertex, or (for circles intersecting nothing) any point of that circle.
// Evaluating the depth at small probes around every critical point therefore
// recovers the exact minimum depth — this is the classic Huang–Tseng
// perimeter argument in point form.
//
// The grid checker (grid_checker.hpp) serves as an independent
// cross-validation; tests assert the two agree.
#pragma once

#include <vector>

#include "geometry/circle.hpp"
#include "wsn/domain.hpp"

namespace laacad::cov {

struct ExactReport {
  int min_depth = 0;
  geom::Vec2 witness;   ///< probe point achieving the minimum
  std::size_t candidates = 0;  ///< critical points examined
};

/// Exact minimum coverage depth of `domain` under closed `disks`, probing
/// faces at 1e-7 * (1 + the domain's larger bbox side) from each critical
/// point.
ExactReport critical_point_coverage(const wsn::Domain& domain,
                                    const std::vector<geom::Circle>& disks);

/// True iff the domain is k-covered according to the critical-point check.
bool is_k_covered(const wsn::Domain& domain,
                  const std::vector<geom::Circle>& disks, int k);

}  // namespace laacad::cov
