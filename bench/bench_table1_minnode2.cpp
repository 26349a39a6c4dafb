// Table I reproduction: LAACAD as an approximate min-node 2-coverage
// solver. Deploy N in {1000, 1200, 1400, 1600} nodes over 1 km^2, run
// LAACAD at k = 2, take R* = max sensing range, and compare N against the
// boundary-free optimum of Bai et al. [3]:  N* = 4 |A| / (3 sqrt(3) R*^2).
//
// Paper's shape: N*/N ~ 0.85 — LAACAD uses ~15% more nodes than the
// boundary-free bound, attributed to boundary effects. (The paper's printed
// R* values correspond to a ~100 m x 100 m area; we run a true 1 km^2, so
// our radii are ~10x — the N* column and the ratio are scale-free.)
//
// The N sweep runs through the campaign engine, loaded from the shipped
// campaigns/table1_minnode2.cmp: one declarative grid, trials sharded
// across LAACAD_THREADS workers, each trial's final network observed by a
// probe for the median-range column. One methodology change rides along:
// per-trial seeds are campaign-derived (Rng::derive over the grid point)
// instead of the old ad-hoc derived_seed(500, N) stream, so the deployments
// differ from the hand-rolled loop's — the table is a shape reproduction,
// not a digit-for-digit one, and the shape is seed-robust.
#include <cmath>
#include <fstream>

#include "baselines/regular.hpp"
#include "bench_common.hpp"
#include "campaign/scheduler.hpp"
#include "common/stats.hpp"
#include "scenario/runner.hpp"
#include "wsn/network.hpp"

namespace {

using namespace laacad;

struct Row {
  double median_range = 0.0;
};

void experiment() {
  std::vector<Row> rows;
  auto result = benchutil::run_campaign_with_probe(
      campaign::load_campaign_file(std::string(LAACAD_SOURCE_DIR) +
                                   "/campaigns/table1_minnode2.cmp"),
      rows,
      [&rows](const campaign::TrialPoint& pt,
              const scenario::ScenarioRunner& runner,
              const scenario::ScenarioResult&) {
        rows[static_cast<std::size_t>(pt.trial)].median_range = percentile(
            runner.network().sensing_ranges(), 50.0);
      });

  const double area = 1000.0 * 1000.0;
  TextTable table({"N", "R* (m)", "N* = 4|A|/(3sqrt3 R*^2)", "N*/N",
                   "median r (m)", "N*(median)/N"});
  for (const auto& trial : result.trials) {
    if (!trial.ok) {
      benchutil::TableSink::instance().note(
          "table1 campaign trial FAILED: " +
          (trial.error.empty() ? "coverage not verified" : trial.error));
      continue;
    }
    const campaign::TrialPoint& pt =
        result.points[static_cast<std::size_t>(trial.trial)];
    const double n =
        trial.metrics[campaign::metric_index("final_nodes")];
    const double rstar = trial.metrics[campaign::metric_index("max_range")];
    const double nstar = base::bai_min_nodes_2cov(area, rstar);
    const double rmed =
        rows[static_cast<std::size_t>(trial.trial)].median_range;
    const double nstar_med = base::bai_min_nodes_2cov(area, rmed);
    table.add_row({benchutil::axis_value(pt, "nodes"),
                   TextTable::num(rstar, 3),
                   std::to_string(static_cast<long long>(std::lround(nstar))),
                   TextTable::num(nstar / n, 3), TextTable::num(rmed, 3),
                   TextTable::num(nstar_med / n, 3)});
  }
  benchutil::TableSink::instance().add(
      "Table I — minimum nodes for 2-coverage (vs Bai et al. [3])",
      std::move(table));
  benchutil::TableSink::instance().note(
      "Paper's values: N=1000..1600 -> N* = 836/1047/1210/1386, i.e. N*/N ~ "
      "0.84-0.87, boundary effects blamed for the ~15% overhead. Shape to "
      "match: R* ~ 1/sqrt(N); our max-range ratio lands ~0.75-0.80 (a few "
      "corner nodes keep larger regions), while the median-range ratio "
      "reproduces the paper's ~0.85 directly.");

  std::ofstream json("BENCH_campaign_table1_minnode2.json");
  if (json) result.write_json(json);
  benchutil::TableSink::instance().note(
      "campaign aggregates: BENCH_campaign_table1_minnode2.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::register_experiment("table1/minnode_2coverage", experiment);
  return benchutil::run_main(argc, argv);
}
