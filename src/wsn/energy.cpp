#include "wsn/energy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/stats.hpp"

namespace laacad::wsn {

double sensing_energy(double range) { return M_PI * range * range; }

namespace {

/// Per-node loads E(r_i) for the current sensing ranges.
std::vector<double> sensing_loads(const Network& net) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(net.size()));
  for (const double r : net.sensing_ranges()) out.push_back(sensing_energy(r));
  return out;
}

}  // namespace

LoadReport load_report(const Network& net) {
  LoadReport rep;
  const auto loads = sensing_loads(net);
  if (loads.empty()) return rep;
  rep.min_range = std::numeric_limits<double>::infinity();
  for (const double r : net.sensing_ranges()) {
    rep.max_range = std::max(rep.max_range, r);
    rep.min_range = std::min(rep.min_range, r);
  }
  if (!std::isfinite(rep.min_range)) rep.min_range = 0.0;
  const Summary s = summarize(loads);
  rep.max_load = s.max();
  rep.min_load = s.min();
  rep.total_load = s.sum();
  rep.fairness = jain_fairness(loads);
  return rep;
}

}  // namespace laacad::wsn
