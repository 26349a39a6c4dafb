// Fig. 8 reproduction: adaptability to arbitrarily shaped target areas with
// obstacles. Two irregular domains (an L-shape with one obstacle and a
// cross with two), k in {2, 4, 6, 8} as in the paper's panels. For every
// run we verify exact k-coverage, that no node sits on an obstacle, and the
// "even clustering as if the area were regular" claim via the cluster-size
// statistic of Fig. 5.
//
// The (domain x k) grid runs through the campaign engine: the domains are
// declarative scenarios (scenarios/fig8_{lshape,cross}.scn, using the
// obstacle spec lines), the sweep is campaigns/fig8_obstacles.cmp loaded
// from the source tree, and a probe lifts the final network out of each
// trial for the feasibility/cluster checks and the SVGs. The bespoke
// domain-construction-and-k loop is gone. One methodology change rides
// along, as in the fig6/fig5 ports: each (domain, k) cell draws its own
// seeded uniform deployment via the campaign's derived seeds instead of
// reusing one RNG stream across k.
#include <fstream>
#include <functional>
#include <numeric>

#include "bench_common.hpp"
#include "campaign/scheduler.hpp"
#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "scenario/runner.hpp"
#include "viz/render.hpp"

namespace {

using namespace laacad;

std::size_t cluster_count(const std::vector<geom::Vec2>& pts, double radius) {
  const int n = static_cast<int>(pts.size());
  std::vector<int> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x)
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    return x;
  };
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      if (geom::dist(pts[static_cast<std::size_t>(a)],
                     pts[static_cast<std::size_t>(b)]) <= radius)
        parent[static_cast<std::size_t>(find(a))] = find(b);
  std::size_t clusters = 0;
  for (int a = 0; a < n; ++a)
    if (find(a) == a) ++clusters;
  return clusters;
}

/// What the probe lifts out of each finished trial (per trial index).
struct ObstacleRow {
  bool have = false;
  bool feasible = false;     ///< no node on an obstacle / outside the domain
  std::size_t clusters = 0;  ///< union-find clusters at 0.1 R*
  int nodes = 0;
  int verified_depth = 0;    ///< exact critical-point min coverage depth
};

using benchutil::axis_value;

/// "../scenarios/fig8_lshape.scn" -> "lshape", for table rows + SVG names.
std::string domain_label(const std::string& scenario_path) {
  std::string label = scenario_path;
  if (const auto slash = label.find_last_of("/\\");
      slash != std::string::npos)
    label = label.substr(slash + 1);
  if (const auto prefix = label.find("fig8_"); prefix == 0)
    label = label.substr(5);
  if (const auto dot = label.find_last_of('.'); dot != std::string::npos)
    label.resize(dot);
  return label;
}

void experiment() {
  std::vector<ObstacleRow> rows;
  const campaign::CampaignResult result = benchutil::run_campaign_with_probe(
      campaign::load_campaign_file(std::string(LAACAD_SOURCE_DIR) +
                                   "/campaigns/fig8_obstacles.cmp"),
      rows,
      [&rows](const campaign::TrialPoint& pt,
              const scenario::ScenarioRunner& runner,
              const scenario::ScenarioResult& sres) {
        ObstacleRow& row = rows[static_cast<std::size_t>(pt.trial)];
        const wsn::Network& net = runner.network();
        row.nodes = net.size();
        row.feasible = true;
        for (const geom::Vec2 p : net.positions())
          row.feasible = row.feasible && runner.domain().contains(p);
        row.clusters = cluster_count(
            net.positions(), 0.10 * sres.phases.back().final_max_range);
        row.verified_depth =
            cov::critical_point_coverage(runner.domain(),
                                         cov::sensing_disks(net))
                .min_depth;
        viz::render_deployment(
            "fig8_" + domain_label(axis_value(pt, "scenario")) + "_k" +
                axis_value(pt, "k") + ".svg",
            net);
        row.have = true;
      });

  TextTable table({"domain", "k", "rounds", "R* (m)", "mean cluster size",
                   "nodes off obstacles", "verified depth"});
  const std::size_t rounds_m = campaign::metric_index("total_rounds");
  const std::size_t rmax_m = campaign::metric_index("max_range");
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const campaign::TrialResult& trial = result.trials[i];
    const ObstacleRow& row = rows[i];
    if (!row.have) {  // trial threw or aborted: the probe never ran
      benchutil::TableSink::instance().note(
          "fig8 campaign trial FAILED — no figure produced: " +
          (trial.error.empty() ? "aborted" : trial.error));
      return;
    }
    const double mean_cluster = static_cast<double>(row.nodes) /
                                static_cast<double>(row.clusters);
    table.add_row({domain_label(axis_value(result.points[i], "scenario")),
                   axis_value(result.points[i], "k"),
                   TextTable::num(trial.metrics[rounds_m], 0),
                   TextTable::num(trial.metrics[rmax_m], 1),
                   TextTable::num(mean_cluster, 2),
                   row.feasible ? "yes" : "NO",
                   std::to_string(row.verified_depth)});
  }
  benchutil::TableSink::instance().add(
      "Fig. 8 — irregular areas with obstacles (120 nodes)", std::move(table));
  benchutil::TableSink::instance().note(
      "Paper's shape: LAACAD adapts to both domains for every k, keeps nodes "
      "off obstacles, k-covers the area, and shows the same even clustering "
      "(mean cluster size ~ k) as in regular areas. SVGs: "
      "fig8_{lshape,cross}_k{2,4,6,8}.svg.");

  std::ofstream json("BENCH_campaign_fig8_obstacles.json");
  if (json) result.write_json(json);
  benchutil::TableSink::instance().note(
      "campaign aggregates: BENCH_campaign_fig8_obstacles.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::register_experiment("fig8/obstacles", experiment);
  return benchutil::run_main(argc, argv);
}
