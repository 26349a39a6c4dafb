// Determinism property of the parallel round loop: for both region
// providers, the engine must produce bit-identical trajectories and
// per-round metrics for num_threads in {1, 2, 8}. This is the contract that
// makes the thread count a pure performance knob.
#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.hpp"
#include "laacad/engine.hpp"
#include "laacad/region_provider.hpp"
#include "wsn/boundary.hpp"
#include "wsn/comm.hpp"
#include "wsn/deployment.hpp"

namespace laacad::core {
namespace {

using geom::Vec2;

struct RunRecord {
  std::vector<RoundMetrics> history;
  std::vector<Vec2> final_positions;
  std::vector<double> final_ranges;
};

RunRecord run_engine(const wsn::Domain& domain,
                     const std::vector<Vec2>& initial, double gamma,
                     LaacadConfig cfg) {
  wsn::Network net(&domain, initial, gamma);
  cfg.retain_history = true;  // the comparison walks the full round record
  Engine engine(net, cfg);
  RunRecord rec;
  RunResult res = engine.run();
  rec.history = std::move(res.history);
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
  base.localized.max_hops = 8;
  // Noise on: exercises the per-(epoch, node) RNG streams, the part of the
  // localized provider that would break first under a shared generator.
  base.localized.range_noise = 0.01;

  LaacadConfig serial = base;
  serial.num_threads = 1;
  serial.provider = make_localized_provider(serial.localized, serial.seed);
  const RunRecord reference = run_engine(d, initial, 60.0, serial);
  ASSERT_FALSE(reference.history.empty());

  for (int threads : {2, 8}) {
    LaacadConfig cfg = base;
    cfg.num_threads = threads;
    cfg.provider = make_localized_provider(cfg.localized, cfg.seed);
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
  int network_boundary = 0, area_boundary = 0;
  for (const wsn::BoundaryInfo& b : serial_bounds) {
    network_boundary += b.network_boundary;
    area_boundary += b.area_boundary;
  }
  ASSERT_GT(network_boundary, 0);
  ASSERT_LT(network_boundary, net.size());
  ASSERT_GT(area_boundary, 0);

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    common::ThreadPool pool(threads);
    net.set_position(0, net.position(0));  // dirty the lazy grid
    const auto bounds = wsn::detect_all_boundaries(net, &pool);
    ASSERT_EQ(bounds.size(), serial_bounds.size());
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      EXPECT_EQ(bounds[i].network_boundary, serial_bounds[i].network_boundary)
          << "node " << i;
      EXPECT_EQ(bounds[i].area_boundary, serial_bounds[i].area_boundary)
          << "node " << i;
    }
    net.set_position(0, net.position(0));
    const wsn::CommModel comm(net, &pool);
    EXPECT_EQ(comm.connected(), serial_comm.connected());
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

}  // namespace
}  // namespace laacad::core
