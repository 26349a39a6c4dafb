// Node-state column alignment and parallel grid-rebuild determinism.
//
// wsn::Network stores a node as two columns, positions() and
// sensing_ranges(), both indexed by node id. These tests drive every
// mutator (construction, set_position, set_sensing_range, add_node,
// remove_node, rebind_domain) through randomized sequences interleaved
// with queries, and after every step compare the network bitwise against a
// reference model: two plain vectors the test updates itself, projecting
// positions through Domain::project_inside. A mutator that drops, shifts or
// misaligns one column against the other shows up as a mismatch.
//
// The second half pins SpatialGrid's count-then-scatter parallel rebuild:
// the CSR arrays (order, cell_start, slot coordinates) must be bitwise
// identical for 1, 2, and 8 threads — including after add/remove churn —
// because everything downstream (candidate orders, k_nearest ties) reads
// slot order.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "wsn/deployment.hpp"
#include "wsn/network.hpp"
#include "wsn/spatial_grid.hpp"

namespace {

using namespace laacad;
using geom::Vec2;

/// What the network should hold, maintained independently of it.
struct ReferenceModel {
  std::vector<Vec2> pos;
  std::vector<double> range;
};

ReferenceModel model_of(const wsn::Domain& domain,
                        const std::vector<Vec2>& initial) {
  ReferenceModel m;
  for (const Vec2 p : initial) m.pos.push_back(domain.project_inside(p));
  m.range.assign(initial.size(), 0.0);
  return m;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Bitwise equality: the network must store exactly what the model computes,
// so even -0.0 vs 0.0 or a NaN payload difference counts as a mismatch.
void expect_matches(const wsn::Network& net, const ReferenceModel& m,
                    const char* where) {
  ASSERT_EQ(net.size(), static_cast<int>(m.pos.size())) << where;
  ASSERT_EQ(net.sensing_ranges().size(), m.range.size()) << where;
  for (int i = 0; i < net.size(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_TRUE(same_bits(net.position(i).x, m.pos[u].x))
        << where << " x i=" << i;
    EXPECT_TRUE(same_bits(net.position(i).y, m.pos[u].y))
        << where << " y i=" << i;
    EXPECT_TRUE(same_bits(net.sensing_range(i), m.range[u]))
        << where << " range i=" << i;
  }
}

TEST(NetworkSoA, ConstructionMirrorsPositions) {
  wsn::Domain domain = wsn::Domain::rectangle(500, 400);
  Rng rng(11);
  // Some starts fall outside the domain, so construction must project.
  std::vector<Vec2> initial = wsn::deploy_uniform(domain, 60, rng);
  initial.push_back({-30.0, 200.0});
  initial.push_back({650.0, 450.0});
  wsn::Network net(&domain, initial, 80.0);
  expect_matches(net, model_of(domain, initial), "after construction");
}

TEST(NetworkSoA, EveryMutationPathStaysCoherent) {
  wsn::Domain domain = wsn::Domain::rectangle(300, 300);
  wsn::Domain shrunk = wsn::Domain::rectangle(260, 240);
  Rng rng(29);
  const auto initial = wsn::deploy_uniform(domain, 40, rng);
  wsn::Network net(&domain, initial, 60.0);
  ReferenceModel m = model_of(domain, initial);
  const wsn::Domain* current = &domain;

  // Randomized mutation fuzz: pick a mutator, apply it to both the network
  // and the model, re-check. Covers interleavings (e.g. remove after
  // set_position, add after a rebind) that single-mutator tests miss.
  for (int step = 0; step < 400; ++step) {
    const int n = net.size();
    ASSERT_GT(n, 0);
    const auto i = static_cast<wsn::NodeId>(rng.uniform_int(0, n - 1));
    const auto u = static_cast<std::size_t>(i);
    switch (rng.uniform_int(0, 5)) {
      case 0: {
        const Vec2 p{rng.uniform(-50.0, 350.0), rng.uniform(-50.0, 350.0)};
        net.set_position(i, p);
        m.pos[u] = current->project_inside(p);
        break;
      }
      case 1: {
        const double r = rng.uniform(0.0, 120.0);
        net.set_sensing_range(i, r);
        m.range[u] = r;
        break;
      }
      case 2: {
        const Vec2 p{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        EXPECT_EQ(net.add_node(p), n);
        m.pos.push_back(current->project_inside(p));
        m.range.push_back(0.0);
        break;
      }
      case 3:
        if (n > 8) {
          net.remove_node(i);
          m.pos.erase(m.pos.begin() + i);
          m.range.erase(m.range.begin() + i);
        }
        break;
      case 4:
        if (rng.uniform_int(0, 9) == 0) {  // rare: swap the domain
          current = current == &domain ? &shrunk : &domain;
          net.rebind_domain(current);
          for (Vec2& p : m.pos) p = current->project_inside(p);
        }
        break;
      case 5: {
        // Queries between mutations force lazy grid rebuilds mid-sequence.
        const auto near = net.k_nearest(net.position(i), 3, i);
        EXPECT_LE(near.size(), 3u);
        for (const int j : near) EXPECT_NE(j, i);
        break;
      }
    }
    expect_matches(net, m, "after mutation step");
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(NetworkSoA, RebindDomainReprojectsBothRepresentations) {
  wsn::Domain big = wsn::Domain::rectangle(1000, 1000);
  wsn::Domain small = wsn::Domain::rectangle(200, 200);
  Rng rng(7);
  const auto initial = wsn::deploy_uniform(big, 50, rng);
  wsn::Network net(&big, initial, 100.0);
  ReferenceModel m = model_of(big, initial);
  for (int i = 0; i < net.size(); ++i) {
    net.set_sensing_range(i, 1.0 + i);
    m.range[static_cast<std::size_t>(i)] = 1.0 + i;
  }
  // Positions move into the new domain; ranges stay with their nodes.
  net.rebind_domain(&small);
  for (Vec2& p : m.pos) p = small.project_inside(p);
  expect_matches(net, m, "after rebind_domain");
  for (const Vec2 p : net.positions()) EXPECT_TRUE(small.contains(p));
}

// --------------------------------------------------------------------------
// Parallel rebuild determinism.

std::vector<Vec2> random_points(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)});
  return pts;
}

void expect_grids_identical(const wsn::SpatialGrid& a,
                            const wsn::SpatialGrid& b, const char* what) {
  ASSERT_EQ(a.order(), b.order()) << what;
  ASSERT_EQ(a.cell_start(), b.cell_start()) << what;
  ASSERT_EQ(a.slot_x().size(), b.slot_x().size()) << what;
  for (std::size_t i = 0; i < a.slot_x().size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.slot_x()[i], &b.slot_x()[i], sizeof(double)), 0)
        << what << " slot_x " << i;
    EXPECT_EQ(std::memcmp(&a.slot_y()[i], &b.slot_y()[i], sizeof(double)), 0)
        << what << " slot_y " << i;
  }
}

TEST(SpatialGridParallel, RebuildBitIdenticalAcrossThreadCounts) {
  // 6000 points exceeds the parallel-path threshold, so pooled rebuilds
  // really exercise count-then-scatter rather than falling back to serial.
  const auto pts = random_points(6000, 77);
  wsn::SpatialGrid serial(pts, 30.0);
  for (int threads : {1, 2, 8}) {
    common::ThreadPool pool(threads);
    wsn::SpatialGrid parallel;
    parallel.rebuild(pts, 30.0, &pool);
    expect_grids_identical(serial, parallel,
                           ("threads=" + std::to_string(threads)).c_str());
  }
}

TEST(SpatialGridParallel, RebuildBitIdenticalUnderChurn) {
  // Simulate the engine's real pattern: the same grid object re-binned
  // round after round while the point set mutates (moves, adds, removes).
  auto pts = random_points(5000, 123);
  Rng rng(5);
  common::ThreadPool pool2(2);
  common::ThreadPool pool8(8);
  wsn::SpatialGrid g_serial, g_two, g_eight;
  for (int round = 0; round < 5; ++round) {
    for (int m = 0; m < 200; ++m) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(pts.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          pts[idx] = {rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)};
          break;
        case 1:
          pts.push_back({rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)});
          break;
        case 2:
          if (pts.size() > 4200) pts.erase(pts.begin() + static_cast<long>(idx));
          break;
      }
    }
    g_serial.rebuild(pts, 25.0);
    g_two.rebuild(pts, 25.0, &pool2);
    g_eight.rebuild(pts, 25.0, &pool8);
    expect_grids_identical(g_serial, g_two, "churn threads=2");
    expect_grids_identical(g_serial, g_eight, "churn threads=8");
  }
}

TEST(SpatialGridParallel, NetworkWarmGridMatchesQueries) {
  // warm_grid with a pool must produce the same query answers as the lazy
  // serial rebuild (slot order feeds k_nearest tie-breaks).
  wsn::Domain domain = wsn::Domain::rectangle(800, 800);
  Rng rng(41);
  const auto initial = wsn::deploy_uniform(domain, 5000, rng);
  wsn::Network lazy(&domain, initial, 40.0);
  wsn::Network warmed(&domain, initial, 40.0);
  common::ThreadPool pool(4);
  warmed.warm_grid(&pool);
  for (int probe = 0; probe < 50; ++probe) {
    const Vec2 q{rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0)};
    EXPECT_EQ(lazy.k_nearest(q, 5), warmed.k_nearest(q, 5)) << probe;
    EXPECT_EQ(lazy.nodes_within(q, 60.0), warmed.nodes_within(q, 60.0))
        << probe;
  }
}

}  // namespace
