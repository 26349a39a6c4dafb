#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "common/stats.hpp"
#include "voronoi/sites.hpp"
#include "wsn/boundary.hpp"
#include "wsn/comm.hpp"
#include "wsn/connectivity.hpp"
#include "wsn/deployment.hpp"
#include "wsn/energy.hpp"
#include "wsn/localization.hpp"
#include "wsn/network.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::wsn {
namespace {

using geom::Vec2;

// ---------------------------------------------------------------- grid ----

TEST(SpatialGrid, WithinMatchesBruteForce) {
  Rng rng(11);
  std::vector<Vec2> pts;
  for (int i = 0; i < 300; ++i)
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  SpatialGrid grid(pts, 10.0);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec2 q{rng.uniform(0, 100), rng.uniform(0, 100)};
    const double r = rng.uniform(1.0, 40.0);
    auto got = grid.within(q, r);
    std::vector<int> expect;
    for (int i = 0; i < 300; ++i)
      if (geom::dist(pts[static_cast<size_t>(i)], q) <= r) expect.push_back(i);
    EXPECT_EQ(got, expect);
  }
}

TEST(SpatialGrid, AnyWithinAgreesWithWithin) {
  Rng rng(17);
  std::vector<Vec2> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  SpatialGrid grid(pts, 6.0);
  std::vector<Vec2> queries = {pts[0], pts[57], {-500, 50}, {50, 1e5},
                               {-1e4, -1e4}, {100, 100}};
  for (int trial = 0; trial < 40; ++trial)
    queries.push_back({rng.uniform(-20, 120), rng.uniform(-20, 120)});
  int hits = 0, misses = 0;
  for (const Vec2 q : queries) {
    for (const double r : {-1.0, 0.0, 0.5, 3.0, 12.0, 80.0, 2e5}) {
      const bool any = grid.any_within(q, r);
      EXPECT_EQ(any, !grid.within(q, r).empty())
          << "q=(" << q.x << "," << q.y << ") r=" << r;
      (any ? hits : misses) += 1;
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  EXPECT_FALSE(SpatialGrid().any_within({0, 0}, 1.0));
}

TEST(SpatialGrid, KNearestMatchesBruteForce) {
  Rng rng(13);
  std::vector<Vec2> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  SpatialGrid grid(pts, 7.0);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec2 q{rng.uniform(0, 100), rng.uniform(0, 100)};
    const int k = rng.uniform_int(1, 12);
    // Exact agreement (indices, not just distances): grid and brute share
    // the canonical (dist2, index) order.
    EXPECT_EQ(grid.k_nearest(q, k), vor::k_nearest_brute(pts, q, k));
  }
}

// Property test: the grid's expanding-radius k_nearest must agree exactly
// with vor::k_nearest_brute over randomized site sets — including the
// `exclude` path and query points far outside the points' bounding box
// (where the pre-fix search could stop at its radius cap with points still
// ungathered, returning a short or wrong answer).
TEST(SpatialGrid, KNearestAgreesWithBruteProperty) {
  Rng rng(29);
  for (int round = 0; round < 8; ++round) {
    const int n = 20 + rng.uniform_int(0, 180);
    std::vector<Vec2> pts;
    pts.reserve(static_cast<std::size_t>(n));
    if (round % 2 == 0) {
      for (int i = 0; i < n; ++i)
        pts.push_back({rng.uniform(0, 200), rng.uniform(0, 200)});
    } else {
      // Clustered: stresses the radius doubling (dense cells, empty bands).
      const int clusters = 3 + rng.uniform_int(0, 3);
      for (int i = 0; i < n; ++i) {
        const double cx = 200.0 * (1 + i % clusters) / (clusters + 1);
        pts.push_back({cx + rng.gaussian(0, 2.0),
                       100.0 + rng.gaussian(0, 2.0)});
      }
    }
    SpatialGrid grid(pts, rng.uniform(2.0, 25.0));
    for (int trial = 0; trial < 40; ++trial) {
      Vec2 q{rng.uniform(0, 200), rng.uniform(0, 200)};
      if (trial % 4 == 0) {  // far outside the bounding box
        q = {rng.uniform(-3000, 5000), rng.uniform(2000, 9000)};
      }
      const int k = rng.uniform_int(1, std::min(n, 15));
      const int exclude = (trial % 3 == 0) ? rng.uniform_int(0, n - 1) : -1;

      auto brute = [&] {
        std::vector<Vec2> kept;
        std::vector<int> back;
        for (int i = 0; i < n; ++i) {
          if (i == exclude) continue;
          kept.push_back(pts[static_cast<std::size_t>(i)]);
          back.push_back(i);
        }
        auto local = vor::k_nearest_brute(kept, q, k);
        std::vector<int> global;
        for (int id : local) global.push_back(back[static_cast<std::size_t>(id)]);
        return global;
      }();
      EXPECT_EQ(grid.k_nearest(q, k, exclude), brute)
          << "round=" << round << " trial=" << trial << " k=" << k
          << " exclude=" << exclude << " q=(" << q.x << "," << q.y << ")";
    }
  }
}

TEST(SpatialGrid, ExcludeSkipsSelf) {
  std::vector<Vec2> pts = {{0, 0}, {1, 0}, {2, 0}};
  SpatialGrid grid(pts, 1.0);
  auto got = grid.k_nearest({0, 0}, 2, /*exclude=*/0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 2);
}

TEST(SpatialGrid, KLargerThanPopulation) {
  std::vector<Vec2> pts = {{0, 0}, {1, 0}};
  SpatialGrid grid(pts, 1.0);
  EXPECT_EQ(grid.k_nearest({0, 0}, 10).size(), 2u);
}

TEST(SpatialGrid, DefaultConstructedIsEmpty) {
  SpatialGrid grid;
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_TRUE(grid.within({0, 0}, 100.0).empty());
  EXPECT_TRUE(grid.k_nearest({0, 0}, 3).empty());
}

TEST(SpatialGrid, RebuildMatchesFreshConstruction) {
  // Re-binning in place (same dims, shifted dims, grown population) must be
  // indistinguishable from constructing a fresh grid over the new snapshot.
  Rng rng(17);
  std::vector<Vec2> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  SpatialGrid reused(pts, 10.0);

  for (int round = 0; round < 5; ++round) {
    for (Vec2& p : pts) {  // jiggle within a fraction of a cell
      p.x += rng.uniform(-2.0, 2.0);
      p.y += rng.uniform(-2.0, 2.0);
    }
    if (round == 3)  // population change forces a dimension change
      for (int i = 0; i < 50; ++i)
        pts.push_back({rng.uniform(-50, 150), rng.uniform(-50, 150)});
    reused.rebuild(pts, 10.0);
    const SpatialGrid fresh(pts, 10.0);
    ASSERT_EQ(reused.size(), fresh.size());
    for (int trial = 0; trial < 10; ++trial) {
      const Vec2 q{rng.uniform(0, 100), rng.uniform(0, 100)};
      const double r = rng.uniform(1.0, 30.0);
      EXPECT_EQ(reused.within(q, r), fresh.within(q, r));
      EXPECT_EQ(reused.k_nearest(q, 5), fresh.k_nearest(q, 5));
    }
  }
}

// ------------------------------------------------------------- network ----

TEST(Network, PositionsProjectedIntoDomain) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{-5, 50}, {50, 50}}, 10.0);
  EXPECT_TRUE(d.contains(net.position(0)));
  EXPECT_EQ(net.position(1), Vec2(50, 50));
}

TEST(Network, OneHopNeighbors) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}, {15, 10}, {50, 50}}, 10.0);
  auto nb = net.one_hop_neighbors(0);
  ASSERT_EQ(nb.size(), 1u);
  EXPECT_EQ(nb[0], 1);
}

TEST(Network, AddRemoveNode) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}}, 10.0);
  net.set_sensing_range(0, 3.0);
  NodeId id = net.add_node({20, 20});
  EXPECT_EQ(net.size(), 2);
  EXPECT_EQ(id, 1);
  EXPECT_EQ(net.sensing_range(id), 0.0);
  net.set_sensing_range(id, 7.0);
  net.remove_node(0);
  EXPECT_EQ(net.size(), 1);
  EXPECT_EQ(net.position(0), Vec2(20, 20));
  EXPECT_EQ(net.sensing_range(0), 7.0);  // the survivor kept its own range
}

TEST(Network, RemoveAfterQueriesReindexesGrid) {
  // The lazy grid was built by a query; a removal must invalidate it so the
  // next query sees re-densified ids, not stale indices into the old list.
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}, {12, 10}, {90, 90}, {92, 90}}, 5.0);
  EXPECT_EQ(net.one_hop_neighbors(0), std::vector<int>{1});
  EXPECT_EQ(net.one_hop_neighbors(2), std::vector<int>{3});

  net.remove_node(0);  // former 1/2/3 become 0/1/2
  EXPECT_TRUE(net.one_hop_neighbors(0).empty());  // (12,10) now alone
  EXPECT_EQ(net.one_hop_neighbors(1), std::vector<int>{2});
  EXPECT_EQ(net.nodes_within({91, 90}, 5.0), (std::vector<int>{1, 2}));
}

TEST(Network, AddAfterQueriesReindexesGrid) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}}, 5.0);
  EXPECT_TRUE(net.one_hop_neighbors(0).empty());  // grid built

  const NodeId id = net.add_node({12, 10});
  EXPECT_EQ(net.one_hop_neighbors(0), std::vector<int>{id});
  const auto near = net.k_nearest({11, 10}, 2);
  EXPECT_EQ(near.size(), 2u);
}

TEST(Network, InterleavedMutationsAndQueriesStayConsistent) {
  // Alternate queries (forcing grid builds) with add/remove churn; every
  // radius query must match a brute-force scan of the current positions.
  Domain d = Domain::rectangle(200, 200);
  Rng rng(23);
  Network net(&d, deploy_uniform(d, 30, rng), 30.0);
  auto brute = [&](Vec2 q, double r) {
    std::vector<int> out;
    for (int i = 0; i < net.size(); ++i)
      if (dist(net.position(i), q) <= r) out.push_back(i);
    return out;
  };
  for (int step = 0; step < 20; ++step) {
    const Vec2 q{rng.uniform(0, 200), rng.uniform(0, 200)};
    auto got = net.nodes_within(q, 40.0);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute(q, 40.0)) << "step " << step;
    if (step % 2 == 0 && net.size() > 1) {
      net.remove_node(rng.uniform_int(0, net.size() - 1));
    } else {
      net.add_node({rng.uniform(0, 200), rng.uniform(0, 200)});
    }
  }
}

TEST(Network, RebindDomainReprojectsNodes) {
  Domain big = Domain::rectangle(200, 200);
  Network net(&big, {{150, 150}, {50, 50}, {10, 190}}, 30.0);

  Domain small = Domain::rectangle(100, 100);
  net.rebind_domain(&small);
  for (int i = 0; i < net.size(); ++i)
    EXPECT_TRUE(small.contains(net.position(i))) << "node " << i;
  EXPECT_EQ(net.position(1), Vec2(50, 50));  // already feasible: unmoved

  // The grid was invalidated: queries reflect the projected positions.
  const auto hits = net.nodes_within({100, 100}, 5.0);
  EXPECT_FALSE(hits.empty());

  // A domain with a hole pushes nodes out of the blocked region too.
  Domain holed = Domain::rectangle(100, 100).with_rect_hole({40, 40}, {60, 60});
  net.rebind_domain(&holed);
  for (int i = 0; i < net.size(); ++i)
    EXPECT_TRUE(holed.contains(net.position(i))) << "node " << i;
}

TEST(Network, MoveInvalidatesQueries) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}, {90, 90}}, 15.0);
  EXPECT_TRUE(net.one_hop_neighbors(0).empty());
  net.set_position(1, {20, 10});
  auto nb = net.one_hop_neighbors(0);
  ASSERT_EQ(nb.size(), 1u);
  EXPECT_EQ(nb[0], 1);
}

TEST(Network, ConcurrentQueriesAfterMoveAgree) {
  // The lazy grid may be rebuilt by whichever reader arrives first; all
  // concurrent readers must see the post-move positions.
  Domain d = Domain::rectangle(200, 200);
  Rng rng(19);
  Network net(&d, deploy_uniform(d, 60, rng), 40.0);
  (void)net.one_hop_neighbors(0);  // build once
  for (int i = 0; i < net.size(); ++i) {
    const Vec2 p = net.position(i);
    net.set_position(i, {p.x + 1.0, p.y + 1.0});  // grid now stale
  }

  std::vector<std::vector<int>> results(8);
  {
    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
      readers.emplace_back([&net, &results, t] {
        results[static_cast<std::size_t>(t)] =
            net.nodes_within({100, 100}, 60.0);
      });
    }
    for (std::thread& t : readers) t.join();
  }
  for (int t = 1; t < 8; ++t)
    EXPECT_EQ(results[static_cast<std::size_t>(t)], results[0]);

  // And they match a serial query against the same positions.
  EXPECT_EQ(net.nodes_within({100, 100}, 60.0), results[0]);
}

// ---------------------------------------------------------- deployment ----

TEST(Deployment, UniformInsideDomain) {
  Domain d = Domain::lshape(100, 100);
  Rng rng(2);
  auto pts = deploy_uniform(d, 200, rng);
  EXPECT_EQ(pts.size(), 200u);
  for (Vec2 p : pts) EXPECT_TRUE(d.contains(p));
}

TEST(Deployment, CornerClusterIsClustered) {
  Domain d = Domain::rectangle(1000, 1000);
  Rng rng(3);
  auto pts = deploy_corner(d, 100, rng, 0.12);
  for (Vec2 p : pts) {
    EXPECT_LE(p.x, 120.0 + 1e-9);
    EXPECT_LE(p.y, 120.0 + 1e-9);
  }
}

TEST(Deployment, GaussianStaysInDomain) {
  Domain d = Domain::rectangle(100, 100);
  Rng rng(4);
  auto pts = deploy_gaussian(d, 150, {50, 50}, 20.0, rng);
  EXPECT_EQ(pts.size(), 150u);
  for (Vec2 p : pts) EXPECT_TRUE(d.contains(p));
}

TEST(Deployment, TriangularLatticeSpacing) {
  Domain d = Domain::rectangle(100, 100);
  auto pts = triangular_lattice(d, 10.0);
  ASSERT_GT(pts.size(), 50u);
  // Nearest-neighbour spacing ~ 10 for interior points.
  SpatialGrid grid(pts, 10.0);
  auto nb = grid.k_nearest(pts[pts.size() / 2], 2);
  const double dmin = geom::dist(pts[static_cast<size_t>(nb[1])], pts[pts.size() / 2]);
  EXPECT_NEAR(dmin, 10.0, 0.5);
}

TEST(Deployment, StackedPlacesKPerAnchor) {
  Rng rng(5);
  auto pts = stacked({{0, 0}, {10, 10}}, 3, rng, 1e-3);
  EXPECT_EQ(pts.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(geom::dist(pts[i], {0, 0}), 0.0, 3e-3);
}

// ---------------------------------------------------------------- comm ----

TEST(Comm, HopDistancesLinearChain) {
  Domain d = Domain::rectangle(100, 10);
  Network net(&d, {{0, 5}, {10, 5}, {20, 5}, {30, 5}, {90, 5}}, 11.0);
  CommModel comm(net);
  auto hd = comm.hop_distances(0);
  EXPECT_EQ(hd[0], 0);
  EXPECT_EQ(hd[1], 1);
  EXPECT_EQ(hd[2], 2);
  EXPECT_EQ(hd[3], 3);
  EXPECT_EQ(hd[4], -1);  // unreachable
  EXPECT_FALSE(analyze_connectivity(net, net.gamma()).connected());
}

TEST(Comm, MaxHopsTruncates) {
  Domain d = Domain::rectangle(100, 10);
  Network net(&d, {{0, 5}, {10, 5}, {20, 5}, {30, 5}}, 11.0);
  CommModel comm(net);
  auto hd = comm.hop_distances(0, 2);
  EXPECT_EQ(hd[2], 2);
  EXPECT_EQ(hd[3], -1);
}

TEST(Comm, GatherRespectsRhoAndHops) {
  Domain d = Domain::rectangle(100, 10);
  Network net(&d, {{0, 5}, {10, 5}, {20, 5}, {30, 5}}, 11.0);
  CommModel comm(net);
  CommStats stats;
  // rho = 25: nodes at 10 and 20 qualify by distance, 30 does not.
  auto got = comm.gather(0, 25.0, 3, &stats);
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_EQ(stats.gather_requests, 1u);
  EXPECT_EQ(stats.node_reports, 2u);
  // Hop cap of 1 restricts to the one-hop neighbour even though rho reaches
  // further.
  auto got1 = comm.gather(0, 25.0, 1, &stats);
  EXPECT_EQ(got1, (std::vector<int>{1}));
}

TEST(Comm, GatherMatchesHopDistanceOracle) {
  // gather's one capped BFS against the definition: every j != i with
  // |u_j - u_i| < rho and a hop distance <= ttl (any, when ttl < 0), in
  // ascending order, with max_hops_used the deepest member's hop distance.
  Domain d = Domain::rectangle(200, 60);
  Rng rng(17);
  std::vector<Vec2> connected = deploy_uniform(d, 70, rng);
  std::vector<Vec2> split;  // two clusters 80 m apart: two components
  for (int j = 0; j < 60; ++j)
    split.push_back({rng.uniform(0, 60) + (j % 2 == 0 ? 0.0 : 140.0),
                     rng.uniform(0, 60)});
  for (const bool whole : {true, false}) {
    Network net(&d, whole ? connected : split, 18.0);
    CommModel comm(net);
    if (!whole) {
      ASSERT_FALSE(analyze_connectivity(net, net.gamma()).connected());
    }
    for (int trial = 0; trial < 40; ++trial) {
      const int i = rng.uniform_int(0, net.size() - 1);
      const double rho = rng.uniform(5.0, 220.0);
      for (const int ttl : {-1, 0, 1, 2, 3, 6}) {
        const std::vector<int> hops = comm.hop_distances(i, ttl);
        std::vector<int> want;
        std::uint64_t deepest = 0;
        for (int j = 0; j < net.size(); ++j) {
          if (j == i || hops[static_cast<std::size_t>(j)] < 0) continue;
          if (geom::dist(net.position(j), net.position(i)) >= rho) continue;
          want.push_back(j);
          deepest = std::max<std::uint64_t>(
              deepest, static_cast<std::uint64_t>(
                           hops[static_cast<std::size_t>(j)]));
        }
        CommStats stats;
        EXPECT_EQ(comm.gather(i, rho, ttl, &stats), want)
            << "i=" << i << " rho=" << rho << " ttl=" << ttl;
        EXPECT_EQ(stats.gather_requests, 1u);
        EXPECT_EQ(stats.node_reports, want.size());
        EXPECT_EQ(stats.max_hops_used, deepest)
            << "i=" << i << " rho=" << rho << " ttl=" << ttl;
      }
    }
  }
}

TEST(Comm, ConnectedDenseNetwork) {
  Domain d = Domain::rectangle(50, 50);
  Rng rng(6);
  Network net(&d, deploy_uniform(d, 80, rng), 15.0);
  // The comm graph's BFS reaches every node, and analyze_connectivity's
  // graph over the same radio range agrees: one component.
  const std::vector<int> hops = CommModel(net).hop_distances(0);
  EXPECT_TRUE(std::none_of(hops.begin(), hops.end(),
                           [](int h) { return h < 0; }));
  EXPECT_TRUE(analyze_connectivity(net, net.gamma()).connected());
}

// ------------------------------------------------------------ boundary ----

TEST(Boundary, ClusterEdgeDetected) {
  Domain d = Domain::rectangle(1000, 1000);
  // Dense 5x5 block of nodes in the middle of a big empty domain.
  std::vector<Vec2> pts;
  for (int y = 0; y < 5; ++y)
    for (int x = 0; x < 5; ++x)
      pts.push_back({500.0 + x * 10.0, 500.0 + y * 10.0});
  Network net(&d, pts, 16.0);
  auto info = detect_all_boundaries(net);
  // Corner node of the block: definitely boundary.
  EXPECT_TRUE(info[0].network_boundary);
  // Center node (index 12): surrounded on all sides.
  EXPECT_FALSE(info[12].network_boundary);
}

TEST(Boundary, IsolatedNodeIsBoundary) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{50, 50}}, 10.0);
  EXPECT_TRUE(detect_boundary(net, 0).network_boundary);
}

// -------------------------------------------------------- localization ----

TEST(Localization, PerfectFrameMatchesRelativePositions) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}, {20, 10}, {10, 30}}, 50.0);
  Rng rng(7);
  auto rel = local_frame(net, 0, {1, 2}, 0.0, rng);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_NEAR(rel[0].x, 10.0, 1e-12);
  EXPECT_NEAR(rel[0].y, 0.0, 1e-12);
  EXPECT_NEAR(rel[1].x, 0.0, 1e-12);
  EXPECT_NEAR(rel[1].y, 20.0, 1e-12);
}

TEST(Localization, NoisePerturbsButPreservesScale) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}, {60, 10}}, 100.0);
  Rng rng(8);
  Summary err;
  for (int i = 0; i < 200; ++i) {
    auto rel = local_frame(net, 0, {1}, 0.05, rng);
    err.add(rel[0].norm());
  }
  EXPECT_NEAR(err.mean(), 50.0, 2.0);
  EXPECT_GT(err.stddev(), 0.5);
}

// -------------------------------------------------------------- energy ----

TEST(Energy, QuadraticModel) {
  EXPECT_NEAR(sensing_energy(2.0), 4.0 * M_PI, 1e-12);
  EXPECT_NEAR(sensing_energy(0.0), 0.0, 1e-12);
}

TEST(Energy, LoadReportAggregates) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}, {20, 20}, {30, 30}}, 10.0);
  net.set_sensing_range(0, 1.0);
  net.set_sensing_range(1, 2.0);
  net.set_sensing_range(2, 3.0);
  LoadReport rep = load_report(net);
  EXPECT_NEAR(rep.max_load, 9.0 * M_PI, 1e-9);
  EXPECT_NEAR(rep.min_load, M_PI, 1e-9);
  EXPECT_NEAR(rep.total_load, 14.0 * M_PI, 1e-9);
  EXPECT_GT(rep.fairness, 0.5);
  EXPECT_LT(rep.fairness, 1.0);
}

TEST(Energy, PerfectBalanceFairnessOne) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}, {20, 20}}, 10.0);
  net.set_sensing_range(0, 2.5);
  net.set_sensing_range(1, 2.5);
  EXPECT_NEAR(load_report(net).fairness, 1.0, 1e-12);
}

TEST(Energy, LoadReportSingleNode) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{50, 50}}, 10.0);
  net.set_sensing_range(0, 3.0);
  LoadReport rep = load_report(net);
  EXPECT_NEAR(rep.max_load, 9.0 * M_PI, 1e-9);
  EXPECT_NEAR(rep.min_load, 9.0 * M_PI, 1e-9);
  EXPECT_NEAR(rep.total_load, 9.0 * M_PI, 1e-9);
  EXPECT_NEAR(rep.fairness, 1.0, 1e-12);
}

TEST(Energy, LoadReportAllZeroRanges) {
  // Freshly constructed nodes have range 0: loads are all zero and the
  // report must stay finite (no 0/0 fairness).
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}, {20, 20}, {30, 30}}, 10.0);
  LoadReport rep = load_report(net);
  EXPECT_EQ(rep.max_load, 0.0);
  EXPECT_EQ(rep.min_load, 0.0);
  EXPECT_EQ(rep.total_load, 0.0);
  EXPECT_TRUE(std::isfinite(rep.fairness));
}

TEST(Energy, LoadReportMixedZeroAndPositive) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {{10, 10}, {20, 20}}, 10.0);
  net.set_sensing_range(0, 0.0);
  net.set_sensing_range(1, 2.0);
  LoadReport rep = load_report(net);
  EXPECT_EQ(rep.min_load, 0.0);
  EXPECT_NEAR(rep.max_load, 4.0 * M_PI, 1e-9);
  EXPECT_TRUE(std::isfinite(rep.fairness));
  EXPECT_NEAR(rep.fairness, 0.5, 1e-9);  // Jain's index of {0, x}
}

TEST(Energy, LoadReportEmptyNetworkIsDefault) {
  Domain d = Domain::rectangle(100, 100);
  Network net(&d, {}, 10.0);
  LoadReport rep = load_report(net);
  EXPECT_EQ(rep.total_load, 0.0);
  // No nodes -> no fairness: NaN (JSON null), the shared empty-aggregate
  // convention, not a fabricated 1.0.
  EXPECT_TRUE(std::isnan(rep.fairness));
}

}  // namespace
}  // namespace laacad::wsn
