// The paper's flagship scenario (Figs. 5 and 6): 100 nodes dropped in the
// bottom-left corner of a 1 km^2 field autonomously expand to k-cover it.
// Produces an SVG per coverage degree plus a CSV of the convergence series.
//
//   ./corner_deployment [nodes] [seed]
#include <cstdio>
#include <exception>

#include "common/csv.hpp"
#include "common/specparse.hpp"
#include "common/table.hpp"
#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/engine.hpp"
#include "viz/render.hpp"
#include "wsn/deployment.hpp"

int main(int argc, char** argv) try {
  using namespace laacad;

  const int n = argc > 1 ? specparse::parse_int(argv[1], 0, "nodes", 1) : 100;
  const std::uint64_t seed =
      argc > 2 ? specparse::parse_uint64(argv[2], 0, "seed") : 3;

  wsn::Domain domain = wsn::Domain::square_km();
  Rng rng(seed);
  const auto initial = wsn::deploy_corner(domain, n, rng);

  {
    wsn::Network net(&domain, initial, 150.0);
    viz::render_deployment("corner_initial.svg", net);
  }
  std::printf("initial corner deployment rendered to corner_initial.svg\n");

  CsvWriter csv("corner_convergence.csv",
                {"k", "round", "max_circumradius", "min_circumradius"});

  for (int k = 1; k <= 4; ++k) {
    wsn::Network net(&domain, initial, 150.0);
    core::LaacadConfig cfg;
    cfg.k = k;
    cfg.epsilon = 1.0;
    cfg.max_rounds = 300;
    core::Engine engine(net, cfg);
    const core::RunResult result =
        engine.run({}, [&](const core::RoundMetrics& m) {
          csv.add_row({std::to_string(k), std::to_string(m.round),
                       TextTable::num(m.max_circumradius, 3),
                       TextTable::num(m.min_circumradius, 3)});
        });
    const auto exact =
        cov::critical_point_coverage(domain, cov::sensing_disks(net));
    const std::string svg = "corner_k" + std::to_string(k) + ".svg";
    viz::render_deployment(svg, net);
    std::printf(
        "k=%d: %3d rounds, R* = %6.2f m, min range = %6.2f m, "
        "verified depth = %d -> %s   (%s)\n",
        k, result.rounds, result.final_max_range, result.final_min_range,
        exact.min_depth, exact.min_depth >= k ? "OK" : "FAIL", svg.c_str());
  }
  std::printf("convergence series written to corner_convergence.csv\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "corner_deployment: %s\n",
               laacad::specparse::without_line(e.what()).c_str());
  return 2;
}
