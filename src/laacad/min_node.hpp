// Min-node k-coverage adaptation (Sec. IV-C of the paper).
//
// The min-node problem fixes a common sensing range r_s and asks for the
// fewest nodes achieving k-coverage. The paper's reduction: run LAACAD, then
// add nodes while R* > r_s and remove nodes while R* < r_s, stopping at the
// smallest node count with R* <= r_s. Node positions warm-start between
// runs, so each adjustment converges in a few rounds.
#pragma once

#include "common/rng.hpp"
#include "laacad/engine.hpp"

namespace laacad::core {

struct MinNodeConfig {
  /// Maximum add/remove adjustments before giving up.
  int max_outer_iters = 60;
  /// LAACAD settings used for every inner run.
  LaacadConfig laacad;
};

struct MinNodeResult {
  int nodes = 0;                 ///< smallest feasible node count found
  double achieved_range = 0.0;   ///< R* of the accepted deployment
  bool feasible = false;         ///< a deployment with R* <= r_s was found
  int laacad_runs = 0;           ///< inner optimizations performed
  std::vector<geom::Vec2> positions;  ///< accepted deployment
};

/// Smallest node count (and deployment) achieving k-coverage of `domain`
/// with common sensing range `r_s`. `initial_n` <= 0 derives a starting
/// population from the load-balance estimate N ~ k|A| / (pi r_s^2).
MinNodeResult plan_min_nodes(const wsn::Domain& domain, int k, double r_s,
                             int initial_n, Rng& rng,
                             const MinNodeConfig& cfg = {});

}  // namespace laacad::core
