// Deeper end-to-end properties of the LAACAD engine: determinism, the
// clustered equilibrium of Fig. 5, localized/global agreement after full
// runs, and coverage under stress shapes.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/engine.hpp"
#include "wsn/deployment.hpp"

namespace laacad::core {
namespace {

using geom::Vec2;

std::size_t cluster_count(const std::vector<Vec2>& pts, double radius) {
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
  std::size_t count = 0;
  for (int a = 0; a < n; ++a)
    if (find(a) == a) ++count;
  return count;
}

LaacadConfig cfg_quick(int k) {
  LaacadConfig cfg;
  cfg.k = k;
  cfg.epsilon = 0.5;
  cfg.max_rounds = 250;
  return cfg;
}

TEST(EngineProperty, DeterministicGivenSeedAndStart) {
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(77);
  const auto init = wsn::deploy_uniform(d, 25, rng);

  wsn::Network a(&d, init, 60.0);
  RunResult ra = Engine(a, cfg_quick(2)).run();
  wsn::Network b(&d, init, 60.0);
  RunResult rb = Engine(b, cfg_quick(2)).run();

  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_DOUBLE_EQ(ra.final_max_range, rb.final_max_range);
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position(i), b.position(i)) << "node " << i;
  }
}

TEST(EngineProperty, StackedStartStaysClusteredForK2) {
  // The paper's Fig.-5 "even clustering" equilibrium: start co-located in
  // pairs, and LAACAD keeps the pairs while balancing loads.
  wsn::Domain d = wsn::Domain::rectangle(400, 400);
  Rng rng(78);
  auto anchors = wsn::deploy_uniform(d, 16, rng);
  auto init = wsn::stacked(anchors, 2, rng, 1e-3);
  wsn::Network net(&d, init, 100.0);
  RunResult res = Engine(net, cfg_quick(2)).run();
  ASSERT_TRUE(res.converged);
  const auto clusters =
      cluster_count(net.positions(), 0.1 * res.final_max_range);
  EXPECT_NEAR(static_cast<double>(clusters), 16.0, 2.0);
  const auto exact = cov::critical_point_coverage(d, cov::sensing_disks(net));
  EXPECT_GE(exact.min_depth, 2);
}

TEST(EngineProperty, GlobalAndLocalizedAgreeOnFinalQuality) {
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(79);
  const auto init = wsn::deploy_uniform(d, 30, rng);

  wsn::Network g(&d, init, 90.0);
  RunResult rg = Engine(g, cfg_quick(2)).run();

  wsn::Network l(&d, init, 90.0);
  LaacadConfig lc = cfg_quick(2);
  LocalizedConfig localized;
  localized.max_hops = 8;
  lc.provider = make_localized_provider(localized, 1);
  RunResult rl = Engine(l, lc).run();

  EXPECT_TRUE(rg.converged);
  EXPECT_TRUE(rl.converged);
  // Same quality regime (both are local optima; allow modest slack).
  EXPECT_NEAR(rl.final_max_range, rg.final_max_range,
              0.2 * rg.final_max_range);
}

TEST(EngineProperty, LShapeDomainKCovers) {
  wsn::Domain d = wsn::Domain::lshape(300, 300);
  Rng rng(80);
  wsn::Network net(&d, wsn::deploy_uniform(d, 28, rng), 80.0);
  RunResult res = Engine(net, cfg_quick(2)).run();
  EXPECT_TRUE(res.converged);
  const auto exact = cov::critical_point_coverage(d, cov::sensing_disks(net));
  EXPECT_GE(exact.min_depth, 2)
      << "witness (" << exact.witness.x << "," << exact.witness.y << ")";
}

TEST(EngineProperty, CrossDomainWithHolesKCovers) {
  wsn::Domain d = wsn::Domain::cross(300, 300, 0.4)
                      .with_rect_hole({135, 40}, {165, 70});
  Rng rng(81);
  wsn::Network net(&d, wsn::deploy_uniform(d, 26, rng), 80.0);
  RunResult res = Engine(net, cfg_quick(1)).run();
  EXPECT_TRUE(res.converged);
  for (const Vec2 p : net.positions()) EXPECT_TRUE(d.contains(p));
  const auto exact = cov::critical_point_coverage(d, cov::sensing_disks(net));
  EXPECT_GE(exact.min_depth, 1);
}

TEST(EngineProperty, KEqualsNodeCountCoLocatesAtDomainChebyshev) {
  // k = N: every node must cover the whole area, so all nodes head to the
  // domain's Chebyshev center with circumradius = covering radius of A.
  wsn::Domain d = wsn::Domain::rectangle(120, 80);
  Rng rng(82);
  wsn::Network net(&d, wsn::deploy_uniform(d, 4, rng), 60.0);
  RunResult res = Engine(net, cfg_quick(4)).run();
  EXPECT_TRUE(res.converged);
  for (const Vec2 p : net.positions()) {
    EXPECT_NEAR(p.x, 60.0, 1.5);
    EXPECT_NEAR(p.y, 40.0, 1.5);
  }
  EXPECT_NEAR(res.final_max_range, std::hypot(60.0, 40.0), 1.5);
}

TEST(EngineProperty, MeanDepthApproxKTimesDiskShare) {
  // Post-convergence sanity: mean coverage depth over the area is
  // Sum(pi r_i^2)/|A| >= k; with balanced loads it concentrates near the
  // total-load ratio.
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(83);
  wsn::Network net(&d, wsn::deploy_uniform(d, 30, rng), 80.0);
  Engine(net, cfg_quick(2)).run();
  const auto grid = cov::grid_coverage(d, cov::sensing_disks(net), 3.0);
  double disk_area = 0.0;
  for (const double r : net.sensing_ranges()) disk_area += M_PI * r * r;
  EXPECT_GE(grid.mean_depth, 2.0);
  // Disk area over |A| bounds the mean depth from above (disks of boundary
  // nodes spill outside the domain) and should not exceed it wildly.
  EXPECT_LE(grid.mean_depth, disk_area / d.area() + 1e-9);
  EXPECT_GE(grid.mean_depth, 0.7 * disk_area / d.area());
}

TEST(EngineProperty, StepIsIdempotentAtFixedPoint) {
  // After convergence, one more step moves nobody.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(84);
  wsn::Network net(&d, wsn::deploy_uniform(d, 15, rng), 70.0);
  Engine engine(net, cfg_quick(1));
  RunResult res = engine.run();
  ASSERT_TRUE(res.converged);
  const auto before = net.positions();
  RoundMetrics m = engine.step();
  EXPECT_EQ(m.moved, 0);
  for (int i = 0; i < net.size(); ++i)
    EXPECT_LT(geom::dist(before[static_cast<std::size_t>(i)],
                         net.position(i)),
              1.0);
}

}  // namespace
}  // namespace laacad::core
