// Sensing-energy model of Sec. V-B: E(r) = pi * r^2, an increasing function
// of the sensing range, identical across nodes. Load metrics quantify the
// "load balancing" in LAACAD's name.
#pragma once

#include <limits>

#include "wsn/network.hpp"

namespace laacad::wsn {

/// E(r) = pi r^2.
double sensing_energy(double range);

struct LoadReport {
  /// Extremes of the sensing ranges r_i; both 0 for a network with no nodes.
  double max_range = 0.0;
  double min_range = 0.0;
  double max_load = 0.0;
  double min_load = 0.0;
  double total_load = 0.0;
  /// Jain's index over loads. NaN (JSON null) for a network with no nodes,
  /// matching jain_fairness's empty-input convention — never a fabricated
  /// "perfectly fair" 1.0 for a report over nothing.
  double fairness = std::numeric_limits<double>::quiet_NaN();
};

LoadReport load_report(const Network& net);

}  // namespace laacad::wsn
