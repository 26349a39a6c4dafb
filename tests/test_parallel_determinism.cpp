// Determinism property of the parallel round loop: for both region
// providers, the engine must produce bit-identical trajectories and
// per-round metrics for num_threads in {1, 2, 8}. This is the contract that
// makes the thread count a pure performance knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "baselines/movement.hpp"
#include "common/thread_pool.hpp"
#include "laacad/engine.hpp"
#include "laacad/region_provider.hpp"
#include "voronoi/adaptive.hpp"
#include "voronoi/sites.hpp"
#include "wsn/boundary.hpp"
#include "wsn/comm.hpp"
#include "wsn/deployment.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::core {
namespace {

using geom::Vec2;

bool same_bits(Vec2 a, Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) ==
             std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

struct RunRecord {
  std::vector<RoundMetrics> history;
  std::vector<Vec2> final_positions;
  std::vector<double> final_ranges;
};

RunRecord run_engine(const wsn::Domain& domain,
                     const std::vector<Vec2>& initial, double gamma,
                     LaacadConfig cfg) {
  wsn::Network net(&domain, initial, gamma);
  Engine engine(net, cfg);
  RunRecord rec;  // the comparison walks the full round record
  engine.run({}, [&rec](const RoundMetrics& m) { rec.history.push_back(m); });
  rec.final_positions = net.positions();
  rec.final_ranges = net.sensing_ranges();
  return rec;
}

void expect_bit_identical(const RunRecord& a, const RunRecord& b,
                          int threads) {
  ASSERT_EQ(a.history.size(), b.history.size()) << "threads=" << threads;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    const RoundMetrics& ma = a.history[r];
    const RoundMetrics& mb = b.history[r];
    EXPECT_EQ(ma.round, mb.round);
    // Exact double equality on purpose: any reordering of the reduction
    // would show up here as a ULP difference.
    EXPECT_EQ(ma.max_circumradius, mb.max_circumradius)
        << "round " << ma.round << " threads=" << threads;
    EXPECT_EQ(ma.min_circumradius, mb.min_circumradius);
    EXPECT_EQ(ma.max_hat_radius, mb.max_hat_radius);
    EXPECT_EQ(ma.max_move, mb.max_move);
    EXPECT_EQ(ma.moved, mb.moved);
    EXPECT_EQ(ma.comm.gather_requests, mb.comm.gather_requests);
    EXPECT_EQ(ma.comm.node_reports, mb.comm.node_reports);
    EXPECT_EQ(ma.comm.max_hops_used, mb.comm.max_hops_used);
  }
  ASSERT_EQ(a.final_positions.size(), b.final_positions.size());
  for (std::size_t i = 0; i < a.final_positions.size(); ++i) {
    EXPECT_EQ(a.final_positions[i].x, b.final_positions[i].x)
        << "node " << i << " threads=" << threads;
    EXPECT_EQ(a.final_positions[i].y, b.final_positions[i].y);
    EXPECT_EQ(a.final_ranges[i], b.final_ranges[i]);
  }
}

TEST(ParallelDeterminism, GlobalProviderIdenticalAcrossThreadCounts) {
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(42);
  const auto initial = wsn::deploy_uniform(d, 40, rng);

  LaacadConfig base;
  base.k = 2;
  base.epsilon = 1.0;
  base.max_rounds = 60;

  LaacadConfig serial = base;
  serial.num_threads = 1;
  const RunRecord reference = run_engine(d, initial, 90.0, serial);
  ASSERT_FALSE(reference.history.empty());

  for (int threads : {2, 8}) {
    LaacadConfig cfg = base;
    cfg.num_threads = threads;
    const RunRecord parallel = run_engine(d, initial, 90.0, cfg);
    expect_bit_identical(reference, parallel, threads);
  }
}

TEST(ParallelDeterminism, LocalizedProviderIdenticalAcrossThreadCounts) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(43);
  const auto initial = wsn::deploy_uniform(d, 30, rng);

  LaacadConfig base;
  base.k = 2;
  base.epsilon = 1.0;
  base.max_rounds = 60;
  LocalizedConfig localized;
  localized.max_hops = 8;
  // Noise on: exercises the per-(epoch, node) RNG streams, the part of the
  // localized provider that would break first under a shared generator.
  localized.range_noise = 0.01;

  LaacadConfig serial = base;
  serial.num_threads = 1;
  serial.provider = make_localized_provider(localized, 1);
  const RunRecord reference = run_engine(d, initial, 60.0, serial);
  ASSERT_FALSE(reference.history.empty());

  for (int threads : {2, 8}) {
    LaacadConfig cfg = base;
    cfg.num_threads = threads;
    cfg.provider = make_localized_provider(localized, 1);
    const RunRecord parallel = run_engine(d, initial, 60.0, cfg);
    expect_bit_identical(reference, parallel, threads);
  }
}

TEST(ParallelDeterminism, HardwareThreadCountAlsoIdentical) {
  // num_threads = 0 (auto) must land on the same trajectory too.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(44);
  const auto initial = wsn::deploy_uniform(d, 25, rng);

  LaacadConfig base;
  base.k = 1;
  base.epsilon = 1.0;
  base.max_rounds = 40;

  LaacadConfig serial = base;
  serial.num_threads = 1;
  const RunRecord reference = run_engine(d, initial, 70.0, serial);

  LaacadConfig autocfg = base;
  autocfg.num_threads = 0;
  const RunRecord parallel = run_engine(d, initial, 70.0, autocfg);
  expect_bit_identical(reference, parallel, 0);
}

// The incremental round cache picks what to recompute serially, from
// positions alone, so which results are reused cannot depend on the thread
// count — also across the disturbances the scenario and serving layers
// apply between rounds without begin_phase(): external moves, a domain
// swap, an interleaved region_of() and a mid-run finalize().
RunRecord run_disturbed(int threads) {
  const wsn::Domain square = wsn::Domain::rectangle(240, 240);
  const wsn::Domain holed = wsn::Domain::rectangle(220, 240).with_rect_hole(
      {90, 90}, {140, 140});
  Rng rng(45);
  wsn::Network net(&square, wsn::deploy_uniform(square, 50, rng), 70.0);
  LaacadConfig cfg;
  cfg.k = 2;
  cfg.epsilon = 1.0;
  cfg.num_threads = threads;
  Engine engine(net, cfg);
  RunRecord rec;
  for (int pass = 1; pass <= 40; ++pass) {
    if (pass == 3)
      for (const int i : {0, 21, 49})
        net.set_position(i, net.position(i) + Vec2{-6.0, 9.0});
    if (pass == 5) (void)engine.region_of(7);
    if (pass == 7) net.rebind_domain(&holed);
    if (pass == 9) engine.finalize();
    rec.history.push_back(engine.step());
  }
  engine.finalize();
  rec.final_positions = net.positions();
  rec.final_ranges = net.sensing_ranges();
  return rec;
}

TEST(ParallelDeterminism, IncrementalRoundsIdenticalAcrossThreadCounts) {
  const RunRecord serial = run_disturbed(1);
  expect_bit_identical(serial, run_disturbed(4), 4);
}

// The localized snapshot (boundary verdicts, connectivity model) built on a
// lent pool must equal the serial build for every thread count. Each pooled
// build starts from a freshly moved network, so its workers also race to
// the lazy grid re-bin.
TEST(ParallelDeterminism, PooledLocalizedSnapshotMatchesSerial) {
  const wsn::Domain d =
      wsn::Domain::lshape(400, 400).with_rect_hole({60, 60}, {120, 140});
  Rng rng(46);
  wsn::Network net(&d, wsn::deploy_uniform(d, 500, rng), 28.0);
  const auto serial_bounds = wsn::detect_all_boundaries(net);
  const wsn::CommModel serial_comm(net);
  int network_boundary = 0;
  for (const wsn::BoundaryInfo& b : serial_bounds)
    network_boundary += b.network_boundary;
  ASSERT_GT(network_boundary, 0);
  ASSERT_LT(network_boundary, net.size());

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    common::ThreadPool pool(threads);
    net.set_position(0, net.position(0));  // dirty the lazy grid
    const auto bounds = wsn::detect_all_boundaries(net, &pool);
    ASSERT_EQ(bounds.size(), serial_bounds.size());
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      EXPECT_EQ(bounds[i].network_boundary, serial_bounds[i].network_boundary)
          << "node " << i;
    }
    net.set_position(0, net.position(0));
    const wsn::CommModel comm(net, &pool);
    for (wsn::NodeId i = 0; i < net.size(); ++i) {
      ASSERT_EQ(comm.hop_distances(i), serial_comm.hop_distances(i))
          << "node " << i;
      wsn::CommStats a, b;
      EXPECT_EQ(comm.gather(i, 90.0, -1, &a),
                serial_comm.gather(i, 90.0, -1, &b));
      EXPECT_EQ(a.max_hops_used, b.max_hops_used);
    }
  }
}

// The serial loop the target-rule ablations ran on before they moved onto
// Engine: every round a full recompute of every region against a fresh
// site grid, a synchronous move toward each non-empty region's target, and
// a final circumradius pass. Kept as the reference LaacadConfig::target
// must reproduce bit for bit.
struct ReferenceRun {
  std::vector<Vec2> positions;
  std::vector<double> ranges;
  int rounds = 0;
  bool converged = false;
};

std::vector<DominatingRegion> reference_regions(const wsn::Network& net,
                                                int k) {
  const auto sites = vor::separate_sites(net.positions());
  const wsn::SpatialGrid grid(sites, std::max(net.gamma(), 1.0));
  std::vector<DominatingRegion> out;
  for (int i = 0; i < net.size(); ++i)
    out.emplace_back(vor::compute_dominating_region(sites, grid, i, k,
                                                    net.domain().bbox())
                         .cells,
                     net.domain());
  return out;
}

ReferenceRun reference_loop(wsn::Network& net, const LaacadConfig& cfg) {
  ReferenceRun run;
  while (run.rounds < cfg.max_rounds && !run.converged) {
    const auto regions = reference_regions(net, cfg.k);
    int moved = 0;
    for (int i = 0; i < net.size(); ++i) {
      const DominatingRegion& region = regions[static_cast<std::size_t>(i)];
      if (region.empty()) continue;
      const Vec2 ui = net.position(i);
      const Vec2 t =
          cfg.target ? cfg.target(region, ui) : region.chebyshev().center;
      if (geom::dist(ui, t) <= cfg.epsilon) continue;
      net.set_position(i, ui + (t - ui) * cfg.alpha);
      if (geom::dist(ui, net.position(i)) > std::max(1e-6, 0.05 * cfg.epsilon))
        ++moved;
    }
    ++run.rounds;
    run.converged = moved == 0;
  }
  const auto regions = reference_regions(net, cfg.k);
  for (int i = 0; i < net.size(); ++i) {
    const DominatingRegion& region = regions[static_cast<std::size_t>(i)];
    run.ranges.push_back(region.empty() ? 0.0
                                        : region.max_dist_from(net.position(i)));
  }
  run.positions = net.positions();
  return run;
}

TEST(ParallelDeterminism, TargetRulesMatchRetiredSerialLoop) {
  const wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(47);
  const auto initial = wsn::deploy_uniform(d, 30, rng);
  struct Rule {
    const char* name;
    TargetFn target;
    std::vector<int> ks;
  };
  const std::vector<Rule> rules = {
      {"chebyshev", nullptr, {1, 2, 3}},
      {"centroid", base::centroid_target, {1, 2, 3}},
      {"vor", base::vor_target(45.0), {1}},  // a 1-coverage heuristic
  };
  for (const Rule& rule : rules) {
    for (const int k : rule.ks) {
      LaacadConfig cfg;
      cfg.k = k;
      cfg.max_rounds = 150;
      cfg.target = rule.target;
      wsn::Network ref_net(&d, initial, 100.0);
      const ReferenceRun ref = reference_loop(ref_net, cfg);
      ASSERT_GT(ref.rounds, 1);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << rule.name << " k=" << k
                                        << " threads=" << threads);
        cfg.num_threads = threads;
        wsn::Network net(&d, initial, 100.0);
        const RunResult res = Engine(net, cfg).run();
        EXPECT_EQ(res.rounds, ref.rounds);
        EXPECT_EQ(res.converged, ref.converged);
        for (int i = 0; i < net.size(); ++i) {
          const auto iz = static_cast<std::size_t>(i);
          EXPECT_TRUE(same_bits(net.position(i), ref.positions[iz]))
              << "node " << i;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(net.sensing_ranges()[iz]),
                    std::bit_cast<std::uint64_t>(ref.ranges[iz]))
              << "node " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace laacad::core
