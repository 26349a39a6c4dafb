// Ablation (Sec. IV-B2 discussion): the step size alpha trades convergence
// speed against motion smoothness — "smaller alpha leads to slower
// convergence but smoother motion trace" — while the converged quality is
// essentially alpha-independent (Prop. 4 holds for all alpha in (0,1]).
//
// The sweep runs through the campaign engine, loaded from the shipped
// campaigns/alpha_ablation.cmp so the two cannot drift: five seeds per
// alpha instead of the old single hand-rolled run, trials sharded across
// LAACAD_THREADS workers, every column a group aggregate (mean ± CI from
// the campaign machinery) rather than a one-seed point estimate. The
// travel column is the real per-trial sum of max displacements (the
// campaign's `travel` metric), not a history walk.
#include <fstream>

#include "bench_common.hpp"
#include "campaign/scheduler.hpp"

namespace {

using namespace laacad;

struct Row {};  // all columns come from the campaign aggregates

void experiment() {
  std::vector<Row> rows;
  auto result = benchutil::run_campaign_with_probe(
      campaign::load_campaign_file(std::string(LAACAD_SOURCE_DIR) +
                                   "/campaigns/alpha_ablation.cmp"),
      rows,
      [](const campaign::TrialPoint&, const scenario::ScenarioRunner&,
         const scenario::ScenarioResult&) {});

  const std::size_t i_rounds = campaign::metric_index("total_rounds");
  const std::size_t i_rstar = campaign::metric_index("max_range");
  const std::size_t i_rmin = campaign::metric_index("min_range");
  const std::size_t i_travel = campaign::metric_index("travel");

  TextTable table({"alpha", "rounds to converge", "R* (m)", "min range (m)",
                   "total travel (m, max-move sum)"});
  for (const campaign::GroupAggregate& g : result.groups) {
    if (g.ok < g.trials) {
      benchutil::TableSink::instance().note(
          "alpha ablation: " + std::to_string(g.trials - g.ok) +
          " trial(s) failed at point " + std::to_string(g.point));
    }
    std::string alpha = "?";
    for (const auto& [axis, value] : g.values)
      if (axis == "alpha") alpha = value;
    table.add_row({alpha, TextTable::num(g.metrics[i_rounds].mean, 1),
                   TextTable::num(g.metrics[i_rstar].mean, 2),
                   TextTable::num(g.metrics[i_rmin].mean, 2),
                   TextTable::num(g.metrics[i_travel].mean, 1)});
  }
  benchutil::TableSink::instance().add(
      "Ablation — step size alpha (60 nodes, k = 2, 500 m square, "
      "mean over 5 seeds)",
      std::move(table));
  benchutil::TableSink::instance().note(
      "Expected: rounds decrease as alpha grows; R* is nearly flat "
      "(convergence guaranteed for all alpha in (0,1]).");

  std::ofstream json("BENCH_campaign_alpha_ablation.json");
  if (json) result.write_json(json);
  benchutil::TableSink::instance().note(
      "campaign aggregates: BENCH_campaign_alpha_ablation.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::register_experiment("ablation/alpha", experiment);
  return benchutil::run_main(argc, argv);
}
