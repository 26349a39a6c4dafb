// Ablation (Sec. IV-C discussion): LAACAD's Chebyshev-center target versus
// the centroid (Lloyd/CVT) rule and the VOR heuristic of Wang et al. [9],
// all running on identical region machinery, scored on the k-CSDP objective
// R* = max_i r_i. Proposition 3 says the Chebyshev center is the optimal
// per-region position for that objective.
#include "bench_common.hpp"
#include "baselines/movement.hpp"
#include "wsn/deployment.hpp"

namespace {

using namespace laacad;

void experiment() {
  wsn::Domain domain = wsn::Domain::rectangle(500, 500);

  TextTable table(
      {"k", "seed", "Chebyshev R*", "Centroid R*", "VOR R*", "best"});
  for (int k : {1, 3}) {
    for (int seed : {41, 42, 43}) {
      Rng rng(static_cast<std::uint64_t>(seed));
      const auto initial = wsn::deploy_uniform(domain, 45, rng);
      core::LaacadConfig cfg;
      cfg.k = k;
      cfg.epsilon = 0.5;
      cfg.max_rounds = 300;
      auto final_max_range = [&](const core::LaacadConfig& c) {
        wsn::Network net(&domain, initial, 100.0);
        return core::Engine(net, c).run().final_max_range;
      };

      const double cheb = final_max_range(cfg);
      core::LaacadConfig lloyd = cfg;
      lloyd.target = base::centroid_target;
      const double cent = final_max_range(lloyd);

      std::string vor_cell = "-";
      double vor_r = std::numeric_limits<double>::infinity();
      if (k == 1) {  // VOR is a 1-coverage heuristic
        core::LaacadConfig vor = cfg;
        vor.target = base::vor_target(60.0);
        vor_r = final_max_range(vor);
        vor_cell = TextTable::num(vor_r, 2);
      }
      const double best = std::min({cheb, cent, vor_r});
      std::string winner = best == cheb   ? "Chebyshev"
                           : best == cent ? "Centroid"
                                          : "VOR";
      table.add_row({std::to_string(k), std::to_string(seed),
                     TextTable::num(cheb, 2), TextTable::num(cent, 2),
                     vor_cell, winner});
    }
  }
  benchutil::TableSink::instance().add(
      "Ablation — motion target rule on the min-max objective (45 nodes, "
      "500 m square)",
      std::move(table));
  benchutil::TableSink::instance().note(
      "Expected: the Chebyshev rule wins (or ties within noise) on R* — it "
      "is the per-region optimum for min-max (Prop. 3); Lloyd optimizes "
      "mean-square distance and VOR only pursues coverage at a fixed range.");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::register_experiment("ablation/target_rule", experiment);
  return benchutil::run_main(argc, argv);
}
