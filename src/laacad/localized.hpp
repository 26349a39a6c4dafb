// Algorithm 2: localized dominating-region computation by expanding rings.
//
// Each ring step widens the gather radius rho by one transmission range
// gamma (one extra hop of flooding) and re-checks whether the circle of
// radius rho/2 around the node is still partly dominated by it: sampled
// circle points v where fewer than k gathered nodes are closer than the node
// itself (|Ŝ^k_{n_i}(v)| < k, line 7 of the paper's pseudo-code) force
// another expansion. Boundary nodes — flagged by the boundary-detection
// service — restrict the check to the arc inside the target area and inside
// the region currently occupied by the network, and use the searching ring
// itself as part of their region boundary (Fig. 3), which is what pushes an
// initially clustered deployment outward.
#pragma once

#include "common/rng.hpp"
#include "voronoi/orderk.hpp"
#include "wsn/boundary.hpp"
#include "wsn/comm.hpp"

namespace laacad::core {

/// The localized backend's settings — exactly its three spec keys.
struct LocalizedConfig {
  int max_hops = 10;  ///< hard cap on ring expansion (spec key `max_hops`)
  /// Algorithm 2 assumes every node within Euclidean distance rho is in
  /// N(n_i, rho). With ideal_gather (default, the paper's semantics) the
  /// flooding TTL is unbounded, so Euclidean-close nodes are found even
  /// when the radio path detours. Disable to study hop-realistic flooding
  /// with a ceil(rho/gamma) + 2 hop TTL (spec key `flooding`).
  bool ideal_gather = true;
  /// Std-dev of the multiplicative ranging error of each node's local
  /// frame (spec key `noise`; 0 = perfect ranging).
  double range_noise = 0.0;
};

struct LocalizedRegion {
  std::vector<vor::OrderKCell> cells;  ///< generator ids are global node ids
  double rho = 0.0;                    ///< final ring radius
  int hops = 0;                        ///< hops the ring required
  bool capped = false;                 ///< stopped by max_hops
};

/// Compute node i's dominating region using only multi-hop-gatherable
/// information. `boundary` is the service verdict for node i this round.
/// Message costs are accumulated into `stats` (may be null). `rng` feeds the
/// simulated localization noise.
LocalizedRegion localized_region(const wsn::CommModel& comm, wsn::NodeId i,
                                 int k, const wsn::BoundaryInfo& boundary,
                                 const LocalizedConfig& cfg,
                                 wsn::CommStats* stats, Rng& rng);

}  // namespace laacad::core
