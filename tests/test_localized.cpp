#include <gtest/gtest.h>

#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/engine.hpp"
#include "laacad/localized.hpp"
#include "voronoi/adaptive.hpp"
#include "voronoi/sites.hpp"
#include "wsn/deployment.hpp"

namespace laacad::core {
namespace {

using geom::Vec2;

double cells_area(const std::vector<vor::OrderKCell>& cells) {
  double a = 0.0;
  for (const auto& c : cells) a += c.area();
  return a;
}

TEST(Localized, InteriorNodeMatchesGlobalRegion) {
  // Regular-ish dense field: the localized region of an interior node must
  // equal the exact global region (Lemma 1 / Algorithm 2 equivalence).
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(61);
  wsn::Network net(&d, wsn::deploy_uniform(d, 120, rng), 30.0);
  const wsn::CommModel comm(net);
  ASSERT_TRUE(comm.connected());

  auto sites = vor::separate_sites(net.positions());
  const wsn::SpatialGrid grid(sites, 30.0);

  // Interior node: nearest to the center.
  const int i = grid.k_nearest({100, 100}, 1)[0];
  for (int k : {1, 2, 3}) {
    LocalizedConfig cfg;
    cfg.max_hops = 10;
    wsn::BoundaryInfo binfo;  // interior: not a boundary node
    Rng noise(1);
    auto local = localized_region(comm, i, k, binfo, cfg, nullptr, noise);
    EXPECT_FALSE(local.capped);

    auto global = vor::compute_dominating_region(sites, grid, i, k, d.bbox());
    // Compare region areas after clipping both to the domain.
    DominatingRegion lr(local.cells, d), gr(global.cells, d);
    ASSERT_FALSE(lr.empty());
    EXPECT_NEAR(lr.area(), gr.area(), 0.01 * gr.area() + 1e-6) << "k=" << k;
  }
}

TEST(Localized, HopsGrowWithK) {
  // Fig. 2's qualitative claim: higher coverage order needs a wider ring.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  auto pts = wsn::triangular_lattice(d, 20.0);
  wsn::Network net(&d, pts, 22.0);
  const wsn::CommModel comm(net);

  // Center-most node.
  int best = 0;
  double bd = 1e18;
  for (int i = 0; i < net.size(); ++i) {
    const double dd = geom::dist(net.position(i), {100, 100});
    if (dd < bd) {
      bd = dd;
      best = i;
    }
  }
  LocalizedConfig cfg;
  cfg.max_hops = 12;
  wsn::BoundaryInfo binfo;
  Rng noise(2);
  int prev_hops = 0;
  for (int k = 1; k <= 6; ++k) {
    auto res = localized_region(comm, best, k, binfo, cfg, nullptr, noise);
    EXPECT_GE(res.hops, prev_hops) << "k=" << k;
    prev_hops = res.hops;
  }
  EXPECT_GE(prev_hops, 2);  // k=6 requires multi-hop information
}

TEST(Localized, MessageAccountingAccumulates) {
  wsn::Domain d = wsn::Domain::rectangle(100, 100);
  Rng rng(62);
  wsn::Network net(&d, wsn::deploy_uniform(d, 40, rng), 25.0);
  const wsn::CommModel comm(net);
  LocalizedConfig cfg;
  wsn::CommStats stats;
  wsn::BoundaryInfo binfo;
  Rng noise(3);
  auto res = localized_region(comm, 0, 2, binfo, cfg, &stats, noise);
  EXPECT_FALSE(res.cells.empty());
  EXPECT_GE(stats.gather_requests, 1u);
  EXPECT_GE(stats.node_reports, 1u);
}

TEST(Localized, CappedBoundaryNodeRegionBoundedByRing) {
  // A corner-clustered deployment: boundary nodes hit the hop cap and the
  // searching ring bounds their region.
  wsn::Domain d = wsn::Domain::rectangle(1000, 1000);
  Rng rng(63);
  wsn::Network net(&d, wsn::deploy_corner(d, 40, rng), 40.0);
  const wsn::CommModel comm(net);
  LocalizedConfig cfg;
  cfg.max_hops = 3;
  wsn::BoundaryInfo binfo;
  binfo.network_boundary = true;
  Rng noise(4);
  // Pick the node farthest from the origin: on the cluster edge.
  int edge = 0;
  double bd = -1.0;
  for (int i = 0; i < net.size(); ++i) {
    const double dd = net.position(i).norm();
    if (dd > bd) {
      bd = dd;
      edge = i;
    }
  }
  auto res = localized_region(comm, edge, 1, binfo, cfg, nullptr, noise);
  // The ring stops either by the hop cap or by the restricted arc check
  // (Fig. 3); both ways the searching ring bounds the region.
  EXPECT_LE(res.hops, cfg.max_hops);
  const double ring = res.rho / 2.0 + 1.0;
  for (const auto& c : res.cells)
    for (Vec2 v : c.poly)
      EXPECT_LE(geom::dist(v, net.position(edge)), ring * 1.05);
}

TEST(Localized, EngineLocalizedBackendConvergesAndCovers) {
  // Full Algorithm 1 + Algorithm 2 stack on a connected uniform network.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(64);
  wsn::Network net(&d, wsn::deploy_uniform(d, 40, rng), 60.0);
  LaacadConfig cfg;
  cfg.k = 2;
  cfg.alpha = 0.8;
  cfg.epsilon = 1.0;
  cfg.max_rounds = 200;
  cfg.localized.max_hops = 8;
  cfg.retain_history = true;  // the comm assertion reads the first round
  cfg.provider = make_localized_provider(cfg.localized, cfg.seed);
  Engine engine(net, cfg);
  RunResult res = engine.run();
  EXPECT_TRUE(res.converged);
  const auto exact = cov::critical_point_coverage(d, cov::sensing_disks(net));
  EXPECT_GE(exact.min_depth, 2)
      << "witness at (" << exact.witness.x << ", " << exact.witness.y << ")";
  // Message accounting flowed into the round metrics.
  EXPECT_GT(res.history.front().comm.gather_requests, 0u);
}

TEST(Localized, RobustToMildRangingNoise) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(65);
  wsn::Network net(&d, wsn::deploy_uniform(d, 35, rng), 60.0);
  LaacadConfig cfg;
  cfg.k = 1;
  cfg.epsilon = 1.0;
  cfg.max_rounds = 200;
  cfg.localized.range_noise = 0.02;  // 2% ranging error
  cfg.provider = make_localized_provider(cfg.localized, cfg.seed);
  Engine engine(net, cfg);
  RunResult res = engine.run();
  // Noisy localization distorts the computed regions, so exact coverage can
  // leak slightly at region seams; require near-complete coverage instead.
  (void)res;
  const auto grid = cov::grid_coverage(d, cov::sensing_disks(net), 1.0);
  EXPECT_GE(grid.fraction_at_least(1), 0.98);
}

TEST(Localized, FewerThanKNeighborsOwnsWholeRing) {
  // Two isolated nodes, k = 3: fewer than k sites in reach, so the region
  // defaults to the reachable window.
  wsn::Domain d = wsn::Domain::rectangle(100, 100);
  wsn::Network net(&d, {{50, 50}, {52, 50}}, 10.0);
  const wsn::CommModel comm(net);
  LocalizedConfig cfg;
  cfg.max_hops = 2;
  wsn::BoundaryInfo binfo;
  binfo.network_boundary = true;
  Rng noise(5);
  auto res = localized_region(comm, 0, 3, binfo, cfg, nullptr, noise);
  EXPECT_TRUE(res.capped);
  EXPECT_FALSE(res.cells.empty());
  EXPECT_GT(cells_area(res.cells), 1.0);
}

}  // namespace
}  // namespace laacad::core
