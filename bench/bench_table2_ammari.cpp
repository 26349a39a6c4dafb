// Table II reproduction: 180 nodes k-cover 1 km^2 under LAACAD for
// k = 3..8; every node is then given the common range R*_k, and we compute
// how many nodes the Reuleaux-lens scheme of Ammari & Das [15] would need
// for the same coverage at that range:
//
//   N*_k = 6 k |A| / ((4 pi - 3 sqrt 3) R*_k^2).
//
// Paper's shape: R*_k grows ~ sqrt(k), so N*_k is nearly flat (~318-323 in
// the paper) and much larger than the 180 nodes LAACAD uses — LAACAD
// k-covers the same area with ~44% fewer nodes.
//
// The k sweep runs through the campaign engine, loaded from the shipped
// campaigns/table2_ammari.cmp. Per-trial seeds are campaign-derived, so
// deployments differ from the old hand-rolled derived_seed(700, k) loop —
// the table is a shape reproduction, robust to the seed stream.
#include <cmath>
#include <fstream>

#include "baselines/ammari.hpp"
#include "bench_common.hpp"
#include "campaign/scheduler.hpp"

namespace {

using namespace laacad;

void experiment() {
  campaign::CampaignOptions opt;
  opt.workers = benchutil::num_threads();
  campaign::CampaignScheduler scheduler(
      campaign::load_campaign_file(std::string(LAACAD_SOURCE_DIR) +
                                   "/campaigns/table2_ammari.cmp"),
      std::move(opt));
  const campaign::CampaignResult result = scheduler.run();

  const double area = 1000.0 * 1000.0;
  const int n = 180;
  TextTable table({"k", "R*_k (m)", "N*_k (Ammari-Das)", "N*_k / N",
                   "R*_k / sqrt(k)"});
  for (const auto& trial : result.trials) {
    const campaign::TrialPoint& pt =
        result.points[static_cast<std::size_t>(trial.trial)];
    if (!trial.ok) {
      benchutil::TableSink::instance().note(
          "table2 campaign trial k=" + benchutil::axis_value(pt, "k") +
          " FAILED: " +
          (trial.error.empty() ? "coverage not verified" : trial.error));
      continue;
    }
    const double kk = std::stod(benchutil::axis_value(pt, "k"));
    const double rstar = trial.metrics[campaign::metric_index("max_range")];
    const double nstar = base::ammari_min_nodes(area, rstar, static_cast<int>(kk));
    table.add_row({benchutil::axis_value(pt, "k"), TextTable::num(rstar, 2),
                   std::to_string(static_cast<long long>(std::lround(nstar))),
                   TextTable::num(nstar / n, 2),
                   TextTable::num(rstar / std::sqrt(kk), 2)});
  }
  benchutil::TableSink::instance().add(
      "Table II — nodes the Ammari-Das [15] scheme needs at LAACAD's R*_k "
      "(N = 180, 1 km^2)",
      std::move(table));
  benchutil::TableSink::instance().note(
      "Paper's values (at their scale): R*_k = 8.77..14.32, N*_k ~ 313-323, "
      "flat in k. Shape to match: N*_k ~ constant ~1.75x the 180 LAACAD "
      "nodes, and R*_k/sqrt(k) ~ constant.");

  std::ofstream json("BENCH_campaign_table2_ammari.json");
  if (json) result.write_json(json);
  benchutil::TableSink::instance().note(
      "campaign aggregates: BENCH_campaign_table2_ammari.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::register_experiment("table2/ammari_kcoverage", experiment);
  return benchutil::run_main(argc, argv);
}
