#include <gtest/gtest.h>

#include "coverage/lifetime.hpp"
#include "laacad/engine.hpp"
#include "wsn/connectivity.hpp"
#include "wsn/deployment.hpp"

namespace laacad {
namespace {

using geom::Vec2;

// ---------------------------------------------------------- connectivity --

TEST(Connectivity, LinearChainComponents) {
  wsn::Domain d = wsn::Domain::rectangle(100, 10);
  wsn::Network net(&d, {{0, 5}, {10, 5}, {20, 5}, {60, 5}, {70, 5}}, 1.0);
  auto rep = wsn::analyze_connectivity(net, 11.0);
  EXPECT_EQ(rep.components, 2);
  EXPECT_EQ(rep.largest_component, 3);
  EXPECT_FALSE(rep.connected());
  EXPECT_EQ(rep.min_degree, 1);
}

TEST(Connectivity, FullyConnectedClique) {
  wsn::Domain d = wsn::Domain::rectangle(20, 20);
  wsn::Network net(&d, {{5, 5}, {6, 5}, {5, 6}, {6, 6}}, 1.0);
  auto rep = wsn::analyze_connectivity(net, 5.0);
  EXPECT_TRUE(rep.connected());
  EXPECT_EQ(rep.min_degree, 3);
  EXPECT_DOUBLE_EQ(rep.mean_degree, 3.0);
}

TEST(Connectivity, KCoverageImpliesConnectivityClaim) {
  // Sec. IV-C: after LAACAD converges for k >= 2, the radio graph at
  // gamma = max r_i is connected and min degree is large.
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(21);
  wsn::Network net(&d, wsn::deploy_uniform(d, 30, rng), 80.0);
  core::LaacadConfig cfg;
  cfg.k = 2;
  cfg.epsilon = 0.5;
  cfg.max_rounds = 250;
  core::Engine engine(net, cfg);
  auto res = engine.run();
  ASSERT_TRUE(res.converged);
  // At gamma exactly R* connectivity is marginal (nearest-neighbour spacing
  // ~ R* in the staggered equilibrium); the paper's "realistic assumption
  // gamma >= r_i" with modest slack yields a well-connected graph.
  auto rep = wsn::analyze_connectivity(net, 1.25 * res.final_max_range);
  EXPECT_TRUE(rep.connected());
  EXPECT_GE(rep.min_degree, 2);

  // Every node's own position is k-covered, so at least k nodes (itself
  // included) sit within its sensing range.
  for (wsn::NodeId i = 0; i < net.size(); ++i)
    EXPECT_GE(net.nodes_within(net.position(i), net.sensing_range(i)).size(),
              2u)
        << "node " << i;
}

// -------------------------------------------------------------- lifetime --

TEST(Lifetime, UniformDrainDiesTogether) {
  wsn::Domain d = wsn::Domain::rectangle(20, 20);
  wsn::Network net(&d, {{10, 10}, {10.5, 10}}, 10.0);
  net.set_sensing_range(0, 15.0);
  net.set_sensing_range(1, 15.0);
  cov::LifetimeConfig cfg;
  cfg.battery = 1000.0 * M_PI * 225.0;  // exactly 1000 epochs at r = 15
  cfg.required_k = 1;
  cfg.grid_resolution = 1.0;
  auto rep = cov::simulate_lifetime(net, cfg);
  EXPECT_EQ(rep.epochs_until_first_death, 1000);
  EXPECT_EQ(rep.epochs_until_coverage_loss, 1000);
  EXPECT_NEAR(rep.energy_unused_fraction, 0.0, 1e-9);
}

TEST(Lifetime, UnbalancedDeploymentLosesCoverageAtFirstDeath) {
  // One big-range node carries the left half: it dies first and coverage
  // collapses while the other node strands most of its battery.
  wsn::Domain d = wsn::Domain::rectangle(40, 10);
  wsn::Network net(&d, {{10, 5}, {30, 5}}, 10.0);
  net.set_sensing_range(0, 12.0);  // covers left half + margin
  net.set_sensing_range(1, 12.0);
  wsn::Network unbalanced(&d, {{5, 5}, {25, 5}}, 10.0);
  unbalanced.set_sensing_range(0, 7.1);   // small corner node
  unbalanced.set_sensing_range(1, 16.0);  // giant node carries the rest

  cov::LifetimeConfig cfg;
  cfg.battery = 1e6;
  cfg.required_k = 1;
  cfg.grid_resolution = 0.5;
  auto balanced = cov::simulate_lifetime(net, cfg);
  auto skewed = cov::simulate_lifetime(unbalanced, cfg);
  EXPECT_GT(balanced.epochs_until_coverage_loss,
            skewed.epochs_until_coverage_loss);
  EXPECT_GT(skewed.energy_unused_fraction, 0.1);
}

TEST(Lifetime, InfeasibleDeploymentReportsZero) {
  wsn::Domain d = wsn::Domain::rectangle(100, 100);
  wsn::Network net(&d, {{10, 10}}, 10.0);
  net.set_sensing_range(0, 5.0);  // nowhere near covering the area
  auto rep = cov::simulate_lifetime(net, {});
  EXPECT_EQ(rep.epochs_until_coverage_loss, 0);
}

TEST(Lifetime, LaacadOutlivesRandomStaticDeployment) {
  // End-to-end motivation check: starting from the same node budget, the
  // LAACAD deployment (balanced ranges) sustains 1-coverage longer than a
  // static random deployment whose ranges are set per-node to the minimum
  // covering its order-1 Voronoi cell.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(31);
  const auto init = wsn::deploy_uniform(d, 20, rng);

  // Static: keep random positions, assign each node the range needed for
  // its Voronoi cell (LAACAD's partition step without the motion step).
  wsn::Network rand_net(&d, init, 60.0);
  {
    core::LaacadConfig cfg;
    cfg.k = 1;
    // No run(): finalize() alone assigns cell circumradii without motion.
    core::Engine engine(rand_net, cfg);
    engine.finalize();
  }
  wsn::Network laacad_net(&d, init, 60.0);
  {
    core::LaacadConfig cfg;
    cfg.k = 1;
    cfg.epsilon = 0.5;
    cfg.max_rounds = 250;
    core::Engine engine(laacad_net, cfg);
    engine.run();
  }
  cov::LifetimeConfig cfg;
  cfg.battery = 1e7;
  cfg.required_k = 1;
  cfg.grid_resolution = 2.0;
  auto moved = cov::simulate_lifetime(laacad_net, cfg);
  auto fixed = cov::simulate_lifetime(rand_net, cfg);
  EXPECT_GT(moved.epochs_until_coverage_loss,
            fixed.epochs_until_coverage_loss);
}

}  // namespace
}  // namespace laacad
