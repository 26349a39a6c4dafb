#include <gtest/gtest.h>

#include "baselines/ammari.hpp"
#include "baselines/movement.hpp"
#include "baselines/regular.hpp"
#include "wsn/deployment.hpp"

namespace laacad::base {
namespace {

TEST(Formulas, KershnerAndBaiDensities) {
  // Bai's optimal 2-coverage count is exactly twice Kershner's 1-coverage.
  const double area = 1e6, r = 30.0;
  EXPECT_NEAR(bai_min_nodes_2cov(area, r), 2.0 * kershner_min_nodes(area, r),
              1e-9);
  // Sanity: Table-I shape — N* = 4 |A| / (3 sqrt(3) R^2).
  EXPECT_NEAR(bai_min_nodes_2cov(1e6, 30.35), 845.0, 10.0);
  EXPECT_NEAR(stacked_min_nodes(area, r, 3),
              3.0 * kershner_min_nodes(area, r), 1e-9);
}

TEST(Formulas, AmmariCount) {
  // 6 k |A| / ((4 pi - 3 sqrt 3) r^2); check against a hand-computed value.
  const double expect = 6.0 * 3.0 * 1e4 /
                        ((4.0 * M_PI - 3.0 * std::sqrt(3.0)) * 25.0);
  EXPECT_NEAR(ammari_min_nodes(1e4, 5.0, 3), expect, 1e-9);
  // Linear in k.
  EXPECT_NEAR(ammari_min_nodes(1e4, 5.0, 6), 2.0 * ammari_min_nodes(1e4, 5.0, 3),
              1e-9);
}

TEST(Movement, ChebyshevBeatsVorOnMinMaxObjective) {
  // Same initial deployment, same rounds; LAACAD's Chebyshev rule should
  // achieve a max range no worse than the VOR heuristic (which optimizes
  // coverage at a fixed range, not min-max).
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(93);
  const auto init = wsn::deploy_uniform(d, 20, rng);
  core::LaacadConfig cfg;
  cfg.k = 1;
  cfg.epsilon = 0.5;
  cfg.max_rounds = 200;

  wsn::Network a(&d, init, 60.0);
  core::RunResult cheb = core::Engine(a, cfg).run();
  wsn::Network b(&d, init, 60.0);
  cfg.target = vor_target(35.0);
  core::RunResult vor = core::Engine(b, cfg).run();

  EXPECT_TRUE(cheb.converged);
  EXPECT_LE(cheb.final_max_range, vor.final_max_range * 1.05);
}

TEST(Movement, CentroidRuleConvergesButNotBetterThanChebyshev) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(94);
  const auto init = wsn::deploy_uniform(d, 24, rng);
  core::LaacadConfig cfg;
  cfg.k = 2;
  cfg.epsilon = 0.5;
  cfg.max_rounds = 250;

  wsn::Network a(&d, init, 60.0);
  core::RunResult cheb = core::Engine(a, cfg).run();
  wsn::Network b(&d, init, 60.0);
  cfg.target = centroid_target;
  core::RunResult cent = core::Engine(b, cfg).run();

  EXPECT_TRUE(cheb.converged);
  // Lloyd optimizes mean-square distance; the min-max objective favors the
  // Chebyshev rule (small tolerance for lucky seeds).
  EXPECT_LE(cheb.final_max_range, cent.final_max_range * 1.10);
}

TEST(Movement, VorStopsOnceRangeSatisfied) {
  // A single node with a generous fixed range should not move at all under
  // VOR once every cell vertex is within range.
  wsn::Domain d = wsn::Domain::rectangle(50, 50);
  wsn::Network net(&d, {{25, 25}}, 30.0);
  core::LaacadConfig cfg;
  cfg.target = vor_target(100.0);  // covers the whole domain from anywhere
  cfg.max_rounds = 10;
  core::RunResult res = core::Engine(net, cfg).run();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(net.position(0), geom::Vec2(25, 25));
}

}  // namespace
}  // namespace laacad::base
