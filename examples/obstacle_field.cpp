// Fig. 8 scenario: LAACAD adapting to arbitrarily shaped areas with
// obstacles. Two irregular domains are k-covered from a corner start; the
// final deployments are rendered to SVG and coverage is verified.
//
//   ./obstacle_field [nodes] [k]
#include <cstdio>
#include <exception>

#include "common/specparse.hpp"
#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/engine.hpp"
#include "viz/render.hpp"
#include "wsn/deployment.hpp"

namespace {

void run_scenario(const char* name, const laacad::wsn::Domain& domain, int n,
                  int k, std::uint64_t seed) {
  using namespace laacad;
  Rng rng(seed);
  wsn::Network net(&domain, wsn::deploy_uniform(domain, n, rng), 120.0);

  core::LaacadConfig cfg;
  cfg.k = k;
  cfg.epsilon = 1.0;
  cfg.max_rounds = 300;
  core::Engine engine(net, cfg);
  const core::RunResult result = engine.run();

  // Obstacles are never occupied.
  bool feasible = true;
  for (const geom::Vec2 p : net.positions())
    feasible = feasible && domain.contains(p);

  const auto exact =
      cov::critical_point_coverage(domain, cov::sensing_disks(net));
  const std::string svg = std::string("obstacles_") + name + ".svg";
  viz::render_deployment(svg, net);
  std::printf(
      "%-10s k=%d: rounds=%3d R*=%7.2f m, nodes feasible=%s, verified "
      "depth=%d -> %s (%s)\n",
      name, k, result.rounds, result.final_max_range, feasible ? "yes" : "NO",
      exact.min_depth, exact.min_depth >= k ? "OK" : "FAIL", svg.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace laacad;
  const int n = argc > 1 ? specparse::parse_int(argv[1], 0, "nodes", 1) : 120;
  const int k = argc > 2 ? specparse::parse_int(argv[2], 0, "k", 1) : 2;

  // Scenario I: L-shaped area with one rectangular obstacle.
  wsn::Domain lshape = wsn::Domain::lshape(1000, 1000)
                           .with_rect_hole({150, 150}, {330, 330});
  run_scenario("lshape", lshape, n, k, 11);

  // Scenario II: cross-shaped area with two obstacles.
  wsn::Domain cross = wsn::Domain::cross(1000, 1000, 0.4)
                          .with_rect_hole({460, 120}, {560, 240})
                          .with_rect_hole({430, 720}, {560, 820});
  run_scenario("cross", cross, n, k, 12);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "obstacle_field: %s\n",
               laacad::specparse::without_line(e.what()).c_str());
  return 2;
}
