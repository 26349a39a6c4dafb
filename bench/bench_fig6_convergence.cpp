// Fig. 6 reproduction: max/min circumradius of the dominating regions vs.
// execution round for k = 1..4 (100 nodes, corner start, 1 km^2).
// Paper's shape: the max circumradius decreases monotonically (Prop. 4);
// the min increases; the two meet closely — especially for larger k — and
// the starting max is nearly identical across k (it is set by the searching
// geometry of the corner cluster, not by k).
//
// The k sweep runs through the campaign engine (the same spec ships as
// campaigns/fig6_convergence.cmp): one declarative grid, trials sharded
// across LAACAD_THREADS workers, per-round history retained for the
// figure's probe table. What used to be a hand-rolled loop is now proof
// that the campaign API subsumes the figure benches. One methodology
// change rides along: each k is its own grid point with its own derived
// seed, so the four runs start from four independently drawn corner
// clusters (the old loop reused one deployment), and the comm range is
// the density-aware auto value instead of a fixed 150 m — the paper's
// "initial max is nearly k-independent" claim now holds statistically
// (corner clusters of equal size look alike) rather than by construction.
#include <fstream>

#include "bench_common.hpp"
#include "campaign/scheduler.hpp"

namespace {

using namespace laacad;

constexpr const char* kCampaignSpec = R"(
name      fig6_convergence
trials    1
seed      3
domain    square
side      1000
deploy    corner
nodes     100
epsilon   1.0
max_rounds 300
grid_resolution 20
sweep k 1 2 3 4
)";

void experiment() {
  campaign::CampaignOptions opt;
  opt.workers = benchutil::num_threads();
  opt.keep_history = true;
  campaign::CampaignScheduler scheduler(
      campaign::parse_campaign_string(kCampaignSpec), std::move(opt));
  const campaign::CampaignResult result = scheduler.run();
  for (const auto& trial : result.trials) {
    if (!trial.ok || trial.history.empty()) {
      benchutil::TableSink::instance().note(
          "fig6 campaign trial FAILED — no figure produced: " +
          (trial.error.empty() ? "empty history" : trial.error));
      return;
    }
  }

  // Sample the series at the rounds shown on the paper's x-axis.
  const std::vector<int> probes = {1,  2,  3,  5,  8,  12, 20,  30,
                                   50, 75, 100, 150, 200, 300};

  TextTable table({"round", "k=1 max", "k=1 min", "k=2 max", "k=2 min",
                   "k=3 max", "k=3 min", "k=4 max", "k=4 min"});
  for (int round : probes) {
    std::vector<std::string> row{std::to_string(round)};
    bool any = false;
    for (const auto& trial : result.trials) {
      const auto& history = trial.history;
      if (round <= static_cast<int>(history.size())) {
        const auto& m = history[static_cast<std::size_t>(round) - 1];
        row.push_back(TextTable::num(m.max_circumradius, 1));
        row.push_back(TextTable::num(m.min_circumradius, 1));
        any = true;
      } else {  // converged earlier: hold the final value (flat tail)
        const auto& m = history.back();
        row.push_back(TextTable::num(m.max_circumradius, 1));
        row.push_back(TextTable::num(m.min_circumradius, 1));
      }
    }
    if (any) table.add_row(std::move(row));
  }
  benchutil::TableSink::instance().add(
      "Fig. 6 — circumradius (m) vs round, corner start, 100 nodes",
      std::move(table));

  // Monotonicity check (Prop. 4 corollary) reported explicitly.
  bool monotone = true;
  for (const auto& trial : result.trials) {
    for (std::size_t i = 1; i < trial.history.size(); ++i) {
      if (trial.history[i].max_hat_radius >
          trial.history[i - 1].max_hat_radius + 1e-6)
        monotone = false;
    }
  }
  benchutil::TableSink::instance().note(
      std::string("R-hat monotone non-increasing for alpha = 1 across all "
                  "four runs: ") +
      (monotone ? "yes (matches Proposition 4)" : "NO — check!"));
  benchutil::TableSink::instance().note(
      "Paper's shape: max curves decrease monotonically, min curves rise, "
      "max/min meet tightly (tighter for larger k); initial max is nearly "
      "k-independent.");

  std::ofstream json("BENCH_campaign_fig6_convergence.json");
  if (json) result.write_json(json);
  benchutil::TableSink::instance().note(
      "campaign aggregates: BENCH_campaign_fig6_convergence.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::register_experiment("fig6/convergence", experiment);
  return benchutil::run_main(argc, argv);
}
