// Quickstart: deploy 60 mobile sensors at random, run LAACAD for 2-coverage
// of a 500 m x 500 m field, verify the result, and render it to SVG.
//
//   ./quickstart [k] [nodes] [seed]
#include <cstdio>
#include <exception>

#include "common/specparse.hpp"
#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/engine.hpp"
#include "viz/render.hpp"
#include "wsn/deployment.hpp"

int main(int argc, char** argv) try {
  using namespace laacad;

  const int k = argc > 1 ? specparse::parse_int(argv[1], 0, "k", 1) : 2;
  const int n = argc > 2 ? specparse::parse_int(argv[2], 0, "nodes", 1) : 60;
  const std::uint64_t seed =
      argc > 3 ? specparse::parse_uint64(argv[3], 0, "seed") : 7;

  // 1. The target area and the initial (random) deployment.
  wsn::Domain domain = wsn::Domain::rectangle(500, 500);
  Rng rng(seed);
  wsn::Network net(&domain, wsn::deploy_uniform(domain, n, rng),
                   /*gamma=*/80.0);

  // 2. Configure and run LAACAD.
  core::LaacadConfig cfg;
  cfg.k = k;
  cfg.alpha = 1.0;       // full step toward the Chebyshev center each round
  cfg.epsilon = 0.5;     // stop when every node is within 0.5 m of its target
  cfg.max_rounds = 300;
  core::Engine engine(net, cfg);
  const core::RunResult result = engine.run();

  std::printf("LAACAD quickstart: %d nodes, k = %d\n", n, k);
  std::printf("  converged       : %s after %d rounds\n",
              result.converged ? "yes" : "no", result.rounds);
  std::printf("  max sensing range R* : %.2f m\n", result.final_max_range);
  std::printf("  min sensing range    : %.2f m\n", result.final_min_range);
  std::printf("  load fairness (Jain) : %.4f\n", result.load.fairness);

  // 3. Verify k-coverage exactly (critical-point checker).
  const auto exact =
      cov::critical_point_coverage(domain, cov::sensing_disks(net));
  std::printf("  verified coverage depth over A : %d (need >= %d) -> %s\n",
              exact.min_depth, k, exact.min_depth >= k ? "OK" : "FAIL");

  // 4. Render the final deployment and the order-k partition.
  viz::render_deployment("quickstart_deployment.svg", net);
  viz::render_order_k_partition("quickstart_partition.svg", net, k);
  std::printf(
      "  wrote quickstart_deployment.svg and quickstart_partition.svg\n");
  return exact.min_depth >= k ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "quickstart: %s\n",
               laacad::specparse::without_line(e.what()).c_str());
  return 2;
}
