#include "coverage/lifetime.hpp"

#include <algorithm>
#include <cmath>

#include "coverage/grid_checker.hpp"
#include "wsn/energy.hpp"

namespace laacad::cov {

namespace {

/// Safety cap on the simulated epochs; a node with zero range never dies.
constexpr int kMaxEpochs = 1 << 20;

}  // namespace

LifetimeReport simulate_lifetime(const wsn::Network& net,
                                 const LifetimeConfig& cfg) {
  LifetimeReport rep;
  const int n = net.size();
  if (n == 0) return rep;

  // Per-epoch drain and deterministic death epoch per node.
  std::vector<int> death_epoch(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double drain = wsn::sensing_energy(net.sensing_range(i));
    death_epoch[static_cast<std::size_t>(i)] =
        drain <= 0.0 ? kMaxEpochs
                     : static_cast<int>(std::floor(cfg.battery / drain));
  }

  // Events happen only at death epochs: walk them in order and re-check
  // coverage after each batch of deaths.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return death_epoch[static_cast<std::size_t>(a)] <
           death_epoch[static_cast<std::size_t>(b)];
  });

  rep.epochs_until_first_death =
      std::min(death_epoch[static_cast<std::size_t>(order[0])],
               kMaxEpochs);

  std::vector<bool> alive(static_cast<std::size_t>(n), true);
  auto covered = [&]() {
    std::vector<geom::Circle> disks;
    for (int i = 0; i < n; ++i) {
      if (alive[static_cast<std::size_t>(i)]) {
        disks.push_back({net.position(i), net.sensing_range(i)});
      }
    }
    const auto grid =
        cov::grid_coverage(net.domain(), disks, cfg.grid_resolution);
    return grid.min_depth >= cfg.required_k;
  };

  if (!covered()) {  // deployment never satisfied the requirement
    rep.epochs_until_coverage_loss = 0;
    rep.nodes_alive_at_loss = n;
    return rep;
  }

  std::size_t next = 0;
  int epoch = 0;
  while (next < order.size()) {
    epoch = std::min(death_epoch[static_cast<std::size_t>(order[next])],
                     kMaxEpochs);
    // Kill every node dying at this epoch.
    while (next < order.size() &&
           death_epoch[static_cast<std::size_t>(order[next])] <= epoch) {
      alive[static_cast<std::size_t>(order[next])] = false;
      ++next;
    }
    if (!covered() || epoch >= kMaxEpochs) break;
  }
  rep.epochs_until_coverage_loss = epoch;
  int survivors = 0;
  double unused = 0.0;
  for (int i = 0; i < n; ++i) {
    if (!alive[static_cast<std::size_t>(i)]) continue;
    ++survivors;
    const double drain = wsn::sensing_energy(net.sensing_range(i));
    unused += std::max(0.0, cfg.battery - drain * epoch);
  }
  rep.nodes_alive_at_loss = survivors;
  rep.energy_unused_fraction =
      unused / (cfg.battery * static_cast<double>(n));
  return rep;
}

}  // namespace laacad::cov
