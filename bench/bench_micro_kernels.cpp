// Microbenchmarks of the geometric kernels underneath LAACAD: minimum
// enclosing circle (Welzl), half-plane clipping, order-k cell construction,
// dominating-region BFS, the adaptive Lemma-1 solver, and one localized
// Algorithm 2 region. These are classic google-benchmark cases (multiple
// timed iterations), unlike the one-shot experiment benches.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/perf_counters.hpp"
#include "common/rng.hpp"
#include "geometry/welzl.hpp"
#include "laacad/localized.hpp"
#include "voronoi/adaptive.hpp"
#include "voronoi/orderk.hpp"
#include "voronoi/sites.hpp"
#include "wsn/boundary.hpp"
#include "wsn/comm.hpp"
#include "wsn/deployment.hpp"
#include "wsn/network.hpp"
#include "wsn/spatial_grid.hpp"

namespace {

using namespace laacad;
using geom::Ring;
using geom::Vec2;

std::vector<Vec2> random_points(int n, std::uint64_t seed, double side) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0, side), rng.uniform(0, side)});
  return pts;
}

void BM_Welzl(benchmark::State& state) {
  const auto pts = random_points(static_cast<int>(state.range(0)), 1, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::min_enclosing_circle(pts));
  }
}
BENCHMARK(BM_Welzl)->Arg(16)->Arg(128)->Arg(1024);

void BM_ClipRing(benchmark::State& state) {
  Ring ring = geom::inscribed_ngon({50, 50}, 40.0,
                                   static_cast<int>(state.range(0)));
  const geom::HalfPlane hp = geom::bisector_halfplane({50, 50}, {90, 70});
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::clip_ring(ring, hp));
  }
}
BENCHMARK(BM_ClipRing)->Arg(8)->Arg(32)->Arg(128);

void BM_OrderKCell(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto sites = vor::separate_sites(random_points(40, 2, 100.0));
  const Ring window = geom::box_ring({{0, 0}, {100, 100}});
  const auto gens = vor::k_nearest_brute(sites, sites[0], k);
  // Out-sites by ascending distance from the first generator, as
  // order_k_cell's pruning requires.
  std::vector<int> others;
  for (int i = 0; i < 40; ++i)
    if (!std::count(gens.begin(), gens.end(), i)) others.push_back(i);
  const Vec2 ref = sites[static_cast<std::size_t>(gens.front())];
  std::sort(others.begin(), others.end(), [&](int a, int b) {
    return geom::dist2(sites[static_cast<std::size_t>(a)], ref) <
           geom::dist2(sites[static_cast<std::size_t>(b)], ref);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(vor::order_k_cell(sites, gens, others, window));
  }
}
BENCHMARK(BM_OrderKCell)->Arg(1)->Arg(3)->Arg(6);

void BM_DominatingRegion(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto sites = vor::separate_sites(random_points(60, 3, 200.0));
  const Ring window = geom::box_ring({{0, 0}, {200, 200}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vor::dominating_region_cells(sites, 17, k, window));
  }
}
BENCHMARK(BM_DominatingRegion)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_AdaptiveSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto sites = vor::separate_sites(random_points(n, 4, 1000.0));
  const wsn::SpatialGrid grid(sites, 50.0);
  const geom::BBox bbox{{0, 0}, {1000, 1000}};
  // Interior-most node.
  int center = 0;
  double best = 1e18;
  for (int i = 0; i < n; ++i) {
    const double d = geom::dist(sites[static_cast<std::size_t>(i)], {500, 500});
    if (d < best) {
      best = d;
      center = i;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vor::compute_dominating_region(sites, grid, center, 2, bbox));
  }
}
BENCHMARK(BM_AdaptiveSolver)->Arg(100)->Arg(400)->Arg(1600);

void BM_EnumerateAllCells(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto sites = vor::separate_sites(random_points(30, 5, 100.0));
  const Ring window = geom::box_ring({{0, 0}, {100, 100}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(vor::enumerate_order_k_cells(sites, k, window));
  }
}
BENCHMARK(BM_EnumerateAllCells)->Arg(1)->Arg(2)->Arg(4);

// ------------------------------------------------- order-k kernel suite ----
//
// Brute vs grid-backed kernel on the fig6-style configuration (400 nodes on
// 1 km^2), with the deterministic cost counters (site-distance evaluations,
// clip passes, ring allocations) attached as benchmark counters so the
// BENCH json artifact tracks the reduction — the acceptance bar is >= 2x
// fewer dist2 evals for the grid kernel, independent of machine speed. Both
// kernels produce bit-identical cells (ctest-enforced); only the cost moves.
// Keep the configuration (seed 7, 400 sites on 1 km^2, interior node, grid
// cell 50) in lockstep with GridKernel.HalvesDistanceEvalsOnFig6Config in
// tests/test_orderk.cpp, which gates the same 2x bar in ctest.

std::vector<Vec2> fig6_sites(int n) {
  Rng rng(7);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0, 1000.0), rng.uniform(0, 1000.0)});
  return vor::separate_sites(std::move(pts));
}

int interior_node(const std::vector<Vec2>& sites, Vec2 center) {
  int best_i = 0;
  double best = 1e18;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const double d = geom::dist(sites[i], center);
    if (d < best) {
      best = d;
      best_i = static_cast<int>(i);
    }
  }
  return best_i;
}

void report_kernel_counters(benchmark::State& state) {
  const auto& c = perf::counters();
  const auto per_iter = [&](std::uint64_t v) {
    return benchmark::Counter(
        static_cast<double>(v) / static_cast<double>(state.iterations()));
  };
  state.counters["dist2_evals"] = per_iter(c.dist2_evals);
  state.counters["clip_calls"] = per_iter(c.clip_calls);
  state.counters["ring_allocs"] = per_iter(c.ring_allocs);
  state.counters["grid_queries"] = per_iter(c.grid_queries);
  state.counters["cells"] = per_iter(c.cells_built);
  state.counters["fallbacks"] = per_iter(c.kernel_fallbacks);
  state.counters["exact_fallbacks"] = per_iter(c.exact_fallbacks);
  state.counters["bisector_scans"] = per_iter(c.bisector_scans);
}

void BM_OrderKRegionBrute(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto sites = fig6_sites(400);
  const Ring window = geom::box_ring({{0, 0}, {1000, 1000}});
  const int i = interior_node(sites, {500, 500});
  perf::counters().reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vor::dominating_region_cells_brute(sites, i, k, window));
  }
  report_kernel_counters(state);
}
BENCHMARK(BM_OrderKRegionBrute)->Arg(1)->Arg(2)->Arg(3);

void BM_OrderKRegionGrid(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto sites = fig6_sites(400);
  const Ring window = geom::box_ring({{0, 0}, {1000, 1000}});
  const int i = interior_node(sites, {500, 500});
  const wsn::SpatialGrid grid(sites, 50.0);  // built once, reused per round
  perf::counters().reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vor::dominating_region_cells(sites, grid, i, k, window));
  }
  report_kernel_counters(state);
}
BENCHMARK(BM_OrderKRegionGrid)->Arg(1)->Arg(2)->Arg(3);

void BM_OrderKEnumerateBrute(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto sites = fig6_sites(120);
  const Ring window = geom::box_ring({{0, 0}, {1000, 1000}});
  perf::counters().reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vor::enumerate_order_k_cells_brute(sites, k, window));
  }
  report_kernel_counters(state);
}
BENCHMARK(BM_OrderKEnumerateBrute)->Arg(1)->Arg(2);

void BM_OrderKEnumerateGrid(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto sites = fig6_sites(120);
  const Ring window = geom::box_ring({{0, 0}, {1000, 1000}});
  const wsn::SpatialGrid grid(sites, 95.0);
  perf::counters().reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vor::enumerate_order_k_cells(sites, grid, k, window));
  }
  report_kernel_counters(state);
}
BENCHMARK(BM_OrderKEnumerateGrid)->Arg(1)->Arg(2);

void BM_GridWithin(benchmark::State& state) {
  auto pts = random_points(2000, 6, 1000.0);
  const wsn::SpatialGrid grid(pts, 50.0);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.within({rng.uniform(0, 1000), rng.uniform(0, 1000)}, 80.0));
  }
}
BENCHMARK(BM_GridWithin);

// Algorithm 2 at the deploy_localized density (2 000 uniform nodes per km²,
// density-derived gamma): one interior node's localized_region, k = 2,
// ideal gather, no ranging noise.
void BM_LocalizedRegion(benchmark::State& state) {
  constexpr int kNodes = 2000;
  constexpr double kSide = 1000.0;
  const wsn::Domain domain = wsn::Domain::rectangle(kSide, kSide);
  const wsn::Network net(&domain, random_points(kNodes, 8, kSide),
                         wsn::auto_comm_range(domain, kNodes, kSide));
  const wsn::CommModel comm(net);
  const std::vector<Vec2> sites = net.positions();
  const int i = interior_node(sites, {kSide / 2, kSide / 2});
  const wsn::BoundaryInfo boundary = wsn::detect_boundary(net, i);
  const core::LocalizedConfig cfg;
  Rng rng(9);
  perf::counters().reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::localized_region(comm, i, 2, boundary, cfg, nullptr, rng));
  }
  report_kernel_counters(state);
}
BENCHMARK(BM_LocalizedRegion);

}  // namespace

BENCHMARK_MAIN();
