#include "laacad/min_node.hpp"

#include <algorithm>
#include <cmath>

#include "wsn/deployment.hpp"

namespace laacad::core {

using geom::Vec2;

namespace {

/// Fraction of the current population added per infeasible step (at least
/// one node).
constexpr double kAddFraction = 0.05;

// One full LAACAD optimization from the given positions; returns the
// converged network state.
struct InnerRun {
  double max_range = 0.0;
  std::vector<Vec2> positions;
  std::vector<double> ranges;
};

InnerRun run_laacad(const wsn::Domain& domain, std::vector<Vec2> positions,
                    const LaacadConfig& cfg) {
  // gamma is irrelevant for the global backend; any positive value works.
  wsn::Network net(&domain, std::move(positions), 50.0);
  Engine engine(net, cfg);
  const RunResult res = engine.run();
  InnerRun out;
  out.max_range = res.final_max_range;
  out.positions = net.positions();
  out.ranges = net.sensing_ranges();
  return out;
}

// Index of the node with the largest / smallest sensing range.
std::size_t argmax(const std::vector<double>& xs) {
  return static_cast<std::size_t>(
      std::max_element(xs.begin(), xs.end()) - xs.begin());
}
std::size_t argmin(const std::vector<double>& xs) {
  return static_cast<std::size_t>(
      std::min_element(xs.begin(), xs.end()) - xs.begin());
}

}  // namespace

MinNodeResult plan_min_nodes(const wsn::Domain& domain, int k, double r_s,
                             int initial_n, Rng& rng,
                             const MinNodeConfig& cfg) {
  MinNodeResult result;
  LaacadConfig lcfg = cfg.laacad;
  lcfg.k = k;

  int n = initial_n;
  if (n <= 0) {
    // Load-balance estimate: each node carries ~ k|A|/N = pi r_s^2.
    n = static_cast<int>(
        std::ceil(1.15 * k * domain.area() / (M_PI * r_s * r_s)));
  }
  n = std::max(n, k);

  std::vector<Vec2> positions = wsn::deploy_uniform(domain, n, rng);
  InnerRun run = run_laacad(domain, positions, lcfg);
  ++result.laacad_runs;

  for (int iter = 0; iter < cfg.max_outer_iters; ++iter) {
    if (run.max_range > r_s) {
      if (result.feasible) break;  // shrunk one node too far: done
      // Infeasible: reinforce the most loaded spot (co-locating near the
      // max-range node splits its dominating region most effectively).
      const int add = std::max(
          1, static_cast<int>(std::lround(
                 kAddFraction * static_cast<double>(run.positions.size()))));
      const Vec2 hot = run.positions[argmax(run.ranges)];
      for (int a = 0; a < add; ++a) {
        run.positions.push_back(domain.project_inside(
            hot + Vec2{rng.uniform(-r_s, r_s), rng.uniform(-r_s, r_s)} * 0.5));
      }
    } else {
      // Feasible: record, then try one node fewer (drop the least loaded).
      result.feasible = true;
      result.nodes = static_cast<int>(run.positions.size());
      result.achieved_range = run.max_range;
      result.positions = run.positions;
      if (run.positions.size() <= static_cast<std::size_t>(k)) break;
      run.positions.erase(run.positions.begin() +
                          static_cast<std::ptrdiff_t>(argmin(run.ranges)));
    }
    run = run_laacad(domain, run.positions, lcfg);
    ++result.laacad_runs;
  }
  if (!result.feasible) {
    result.nodes = static_cast<int>(run.positions.size());
    result.achieved_range = run.max_range;
    result.positions = run.positions;
  }
  return result;
}

}  // namespace laacad::core
