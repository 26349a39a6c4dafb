// Network-lifetime simulation — the claim that motivates LAACAD's
// objective. k-CSDP minimizes the maximum sensing range, and since
// E(r) = pi r^2 drains batteries proportionally, min-max range = balanced
// drain = maximal time until the first coverage violation.
//
// The simulator gives every node an identical battery, drains E(r_i) from
// it per epoch (for at most 2^20 epochs), kills depleted nodes, and
// reports when coverage first drops below the required degree. Comparing
// LAACAD's deployment against an unbalanced one of equal total energy
// quantifies the lifetime benefit end-to-end.
#pragma once

#include <vector>

#include "wsn/domain.hpp"
#include "wsn/network.hpp"

namespace laacad::cov {

struct LifetimeConfig {
  double battery = 1.0e6;     ///< initial energy per node (J-equivalents)
  int required_k = 1;         ///< coverage degree that must survive
  double grid_resolution = 10.0;  ///< coverage check resolution (m)
};

struct LifetimeReport {
  int epochs_until_first_death = 0;   ///< first node depleted
  int epochs_until_coverage_loss = 0; ///< area no longer required_k-covered
  int nodes_alive_at_loss = 0;
  double energy_unused_fraction = 0.0;  ///< energy stranded in survivors
};

/// Simulate battery drain on the network's current deployment (positions
/// and sensing ranges are read, not modified).
LifetimeReport simulate_lifetime(const wsn::Network& net,
                                 const LifetimeConfig& cfg = {});

}  // namespace laacad::cov
