#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/engine.hpp"
#include "wsn/deployment.hpp"

namespace laacad::core {
namespace {

using geom::Vec2;

LaacadConfig quick_config(int k, double alpha = 1.0) {
  LaacadConfig cfg;
  cfg.k = k;
  cfg.alpha = alpha;
  cfg.epsilon = 0.5;
  cfg.max_rounds = 250;
  cfg.retain_history = true;  // several tests assert on the round record
  return cfg;
}

TEST(Engine, RejectsBadArguments) {
  wsn::Domain d = wsn::Domain::rectangle(100, 100);
  wsn::Network net(&d, {{10, 10}, {20, 20}}, 20.0);
  LaacadConfig cfg;
  cfg.k = 0;
  EXPECT_THROW(Engine(net, cfg), std::invalid_argument);
  cfg.k = 5;  // more than nodes
  EXPECT_THROW(Engine(net, cfg), std::invalid_argument);
  cfg.k = 1;
  cfg.alpha = 0.0;
  EXPECT_THROW(Engine(net, cfg), std::invalid_argument);
  cfg.alpha = 1.5;
  EXPECT_THROW(Engine(net, cfg), std::invalid_argument);
  cfg.alpha = 1.0;
  cfg.epsilon = 0.0;
  EXPECT_THROW(Engine(net, cfg), std::invalid_argument);
  cfg.epsilon = -1.0;
  EXPECT_THROW(Engine(net, cfg), std::invalid_argument);
  cfg.epsilon = 0.5;
  cfg.max_rounds = 0;
  EXPECT_THROW(Engine(net, cfg), std::invalid_argument);
  cfg.max_rounds = 400;
  cfg.num_threads = -2;
  EXPECT_THROW(Engine(net, cfg), std::invalid_argument);
  cfg.num_threads = 1;
  EXPECT_NO_THROW(Engine(net, cfg));
}

TEST(Engine, ValidationMessagesNameTheField) {
  wsn::Domain d = wsn::Domain::rectangle(100, 100);
  wsn::Network net(&d, {{10, 10}, {20, 20}}, 20.0);
  LaacadConfig cfg;
  cfg.epsilon = -0.5;
  try {
    Engine engine(net, cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("epsilon"), std::string::npos)
        << e.what();
  }
}

TEST(Engine, BeginPhaseResumesAfterNetworkMutation) {
  // The scenario engine's contract: converge, mutate the network, re-arm,
  // and the engine redeploys the survivors with a fresh rounds allowance.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(21);
  wsn::Network net(&d, wsn::deploy_uniform(d, 16, rng), 60.0);
  Engine engine(net, quick_config(2));
  RunResult first = engine.run();
  ASSERT_TRUE(first.converged);

  net.remove_node(3);
  net.remove_node(7);
  net.add_node({5.0, 5.0});
  engine.begin_phase();
  EXPECT_EQ(engine.rounds_executed(), 0);
  RunResult second = engine.run();
  EXPECT_TRUE(second.converged);
  EXPECT_GE(second.rounds, 1);  // the disruption forced actual redeployment

  const auto exact = cov::critical_point_coverage(d, cov::sensing_disks(net));
  EXPECT_GE(exact.min_depth, 2);
}

TEST(Engine, BeginPhaseRejectsNetworkBelowK) {
  wsn::Domain d = wsn::Domain::rectangle(100, 100);
  wsn::Network net(&d, {{10, 10}, {20, 20}, {30, 30}}, 20.0);
  Engine engine(net, quick_config(3));
  engine.run();
  net.remove_node(0);
  EXPECT_THROW(engine.begin_phase(), std::invalid_argument);
}

TEST(Engine, SingleNodeK1MovesToDomainChebyshevCenter) {
  wsn::Domain d = wsn::Domain::rectangle(100, 60);
  wsn::Network net(&d, {{5, 5}}, 20.0);
  Engine engine(net, quick_config(1));
  RunResult res = engine.run();
  EXPECT_TRUE(res.converged);
  // Chebyshev center of a rectangle is its center; circumradius is the
  // half-diagonal.
  EXPECT_NEAR(net.position(0).x, 50.0, 1.0);
  EXPECT_NEAR(net.position(0).y, 30.0, 1.0);
  EXPECT_NEAR(res.final_max_range, std::hypot(50.0, 30.0), 1.0);
}

TEST(Engine, ThreeNodesK3CoLocateAtCenter) {
  // The paper's motivating example: 3 nodes 3-covering an area co-locate.
  wsn::Domain d = wsn::Domain::rectangle(100, 100);
  wsn::Network net(&d, {{10, 10}, {90, 20}, {40, 80}}, 30.0);
  Engine engine(net, quick_config(3));
  RunResult res = engine.run();
  EXPECT_TRUE(res.converged);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(net.position(i).x, 50.0, 2.0);
    EXPECT_NEAR(net.position(i).y, 50.0, 2.0);
  }
  EXPECT_NEAR(res.final_max_range, std::hypot(50.0, 50.0), 2.0);
}

struct EngineCase {
  int k;
  int n;
  int seed;
};

class EngineConvergence : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineConvergence, ConvergesAndKCovers) {
  const auto param = GetParam();
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(static_cast<std::uint64_t>(param.seed));
  wsn::Network net(&d, wsn::deploy_uniform(d, param.n, rng), 60.0);
  Engine engine(net, quick_config(param.k));
  RunResult res = engine.run();
  EXPECT_TRUE(res.converged) << "did not converge in 250 rounds";

  // Exact k-coverage of the whole domain at the assigned ranges.
  const auto exact =
      cov::critical_point_coverage(d, cov::sensing_disks(net));
  EXPECT_GE(exact.min_depth, param.k)
      << "witness at (" << exact.witness.x << ", " << exact.witness.y << ")";

  // Ranges are meaningful: max >= min > 0.
  EXPECT_GT(res.final_min_range, 0.0);
  EXPECT_GE(res.final_max_range, res.final_min_range);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineConvergence,
    ::testing::Values(EngineCase{1, 25, 1}, EngineCase{2, 30, 2},
                      EngineCase{3, 30, 3}, EngineCase{4, 36, 4},
                      EngineCase{2, 50, 5}, EngineCase{1, 40, 6}),
    [](const ::testing::TestParamInfo<EngineCase>& tpi) {
      return "k" + std::to_string(tpi.param.k) + "_n" +
             std::to_string(tpi.param.n) + "_s" +
             std::to_string(tpi.param.seed);
    });

TEST(Engine, MaxHatRadiusNonIncreasingForAlphaOne) {
  // Corollary of Proposition 4: R̂ is non-increasing along the iteration.
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(7);
  wsn::Network net(&d, wsn::deploy_uniform(d, 35, rng), 60.0);
  Engine engine(net, quick_config(2, 1.0));
  RunResult res = engine.run();
  ASSERT_GE(res.history.size(), 2u);
  for (std::size_t i = 1; i < res.history.size(); ++i) {
    EXPECT_LE(res.history[i].max_hat_radius,
              res.history[i - 1].max_hat_radius + 1e-6)
        << "round " << i;
  }
}

TEST(Engine, SmallAlphaConvergesSlowerButConverges) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(8);
  const auto init = wsn::deploy_uniform(d, 20, rng);

  wsn::Network fast(&d, init, 60.0);
  RunResult res_fast = Engine(fast, quick_config(2, 1.0)).run();

  wsn::Network slow(&d, init, 60.0);
  RunResult res_slow = Engine(slow, quick_config(2, 0.3)).run();

  EXPECT_TRUE(res_fast.converged);
  EXPECT_TRUE(res_slow.converged);
  EXPECT_GE(res_slow.rounds, res_fast.rounds);
  // Both land on deployments of comparable quality.
  EXPECT_NEAR(res_slow.final_max_range, res_fast.final_max_range,
              0.35 * res_fast.final_max_range);
}

TEST(Engine, CornerDeploymentExpandsOverArea) {
  wsn::Domain d = wsn::Domain::rectangle(400, 400);
  Rng rng(9);
  wsn::Network net(&d, wsn::deploy_corner(d, 30, rng), 80.0);
  // All nodes start in the corner 48x48 box.
  for (const Vec2 p : net.positions()) {
    EXPECT_LE(p.x, 48.1);
    EXPECT_LE(p.y, 48.1);
  }
  Engine engine(net, quick_config(1));
  RunResult res = engine.run();
  EXPECT_TRUE(res.converged);
  // Spread: some node should end far from the corner.
  double max_reach = 0.0;
  for (const Vec2 p : net.positions())
    max_reach = std::max(max_reach, p.norm());
  EXPECT_GT(max_reach, 300.0);
  const auto exact = cov::critical_point_coverage(d, cov::sensing_disks(net));
  EXPECT_GE(exact.min_depth, 1);
}

TEST(Engine, LoadBalancedForK3) {
  // Sec. V-A: "the maximum and minimum sensing ranges are almost the same
  // for k > 2". Assert a loose version: min/max >= 0.5.
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(10);
  wsn::Network net(&d, wsn::deploy_uniform(d, 33, rng), 60.0);
  RunResult res = Engine(net, quick_config(3)).run();
  ASSERT_TRUE(res.converged);
  EXPECT_GT(res.final_min_range / res.final_max_range, 0.5);
  EXPECT_GT(res.load.fairness, 0.8);
}

TEST(Engine, ObstacleDomainConvergesAndCovers) {
  wsn::Domain d =
      wsn::Domain::rectangle(300, 300).with_rect_hole({120, 120}, {180, 180});
  Rng rng(11);
  wsn::Network net(&d, wsn::deploy_uniform(d, 30, rng), 60.0);
  RunResult res = Engine(net, quick_config(2)).run();
  EXPECT_TRUE(res.converged);
  // No node ended up inside the obstacle.
  for (const Vec2 p : net.positions()) EXPECT_TRUE(d.contains(p));
  const auto exact = cov::critical_point_coverage(d, cov::sensing_disks(net));
  EXPECT_GE(exact.min_depth, 2);
}

TEST(Engine, RegionOfContainsOwnNode) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(12);
  wsn::Network net(&d, wsn::deploy_uniform(d, 15, rng), 60.0);
  Engine engine(net, quick_config(2));
  engine.step();
  for (int i = 0; i < net.size(); ++i) {
    DominatingRegion region = engine.region_of(i);
    ASSERT_FALSE(region.empty());
    EXPECT_TRUE(region.contains(net.position(i), 1e-6)) << "node " << i;
  }
}

TEST(Engine, RegionAreasSumToKTimesDomain) {
  // Every point of A lies in exactly k dominating regions (its k nearest
  // nodes), so the areas sum to k |A|.
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(13);
  wsn::Network net(&d, wsn::deploy_uniform(d, 20, rng), 60.0);
  for (int k : {1, 2, 3}) {
    Engine engine(net, quick_config(k));
    double total = 0.0;
    for (int i = 0; i < net.size(); ++i) total += engine.region_of(i).area();
    EXPECT_NEAR(total, k * d.area(), 0.01 * d.area()) << "k=" << k;
  }
}

TEST(Engine, HistoryRecordsRounds) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(14);
  wsn::Network net(&d, wsn::deploy_uniform(d, 12, rng), 60.0);
  Engine engine(net, quick_config(1));
  RunResult res = engine.run();
  ASSERT_FALSE(res.history.empty());
  EXPECT_EQ(res.history.front().round, 1);
  EXPECT_EQ(res.history.back().round, res.rounds);
  // Last round has no movement (that is the convergence signal).
  EXPECT_EQ(res.history.back().moved, 0);
}

// ---------------------------------------------------------- providers ----

TEST(Engine, ExplicitGlobalProviderMatchesDefault) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(15);
  const auto initial = wsn::deploy_uniform(d, 15, rng);

  wsn::Network a(&d, initial, 60.0);
  RunResult ra = Engine(a, quick_config(2)).run();

  wsn::Network b(&d, initial, 60.0);
  LaacadConfig cfg = quick_config(2);
  cfg.provider = make_global_provider();
  RunResult rb = Engine(b, cfg).run();

  ASSERT_EQ(ra.history.size(), rb.history.size());
  EXPECT_EQ(ra.final_max_range, rb.final_max_range);
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position(i).x, b.position(i).x) << "node " << i;
    EXPECT_EQ(a.position(i).y, b.position(i).y) << "node " << i;
  }
}

// A stub provider — the interface is the test seam: hand every node the
// same fixed square, and Algorithm 1 must march all nodes toward that
// square's Chebyshev center regardless of any Voronoi machinery.
class StubSquareProvider final : public RegionProvider {
 public:
  explicit StubSquareProvider(geom::BBox box) : box_(box) {}

  void begin_round(const wsn::Network&, int, std::uint64_t,
                   common::ThreadPool*) override {}

  RegionOutput compute(wsn::NodeId) const override {
    RegionOutput out;
    vor::OrderKCell cell;
    cell.gens = {0};
    cell.poly = geom::box_ring(box_);
    out.cells.push_back(std::move(cell));
    return out;
  }

  std::string_view name() const override { return "stub-square"; }

 private:
  geom::BBox box_;
};

TEST(Engine, StubProviderDrivesNodesToItsChebyshevCenter) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  wsn::Network net(&d, {{10, 10}, {190, 10}, {100, 190}}, 60.0);

  LaacadConfig cfg = quick_config(1);
  cfg.provider = std::make_shared<StubSquareProvider>(
      geom::BBox{{40, 40}, {80, 80}});
  Engine engine(net, cfg);
  RunResult res = engine.run();
  EXPECT_TRUE(res.converged);
  for (int i = 0; i < net.size(); ++i) {
    EXPECT_NEAR(net.position(i).x, 60.0, cfg.epsilon + 1e-9) << "node " << i;
    EXPECT_NEAR(net.position(i).y, 60.0, cfg.epsilon + 1e-9) << "node " << i;
  }
}

// ------------------------------------------------------- incremental rounds

// The reference the incremental engine must match bit for bit: Algorithm 1
// with every region of every node recomputed on every pass, over its own
// fresh GlobalRegionProvider — the engine's step()/finalize() bodies from
// before rounds reused anything.
class FullRecompute {
 public:
  FullRecompute(wsn::Network& net, const LaacadConfig& cfg)
      : net_(net), cfg_(cfg) {}

  RoundMetrics step() {
    RoundMetrics m;
    m.round = ++round_;
    provider_.begin_round(net_, cfg_.k, 0);
    struct Distilled {
      Vec2 target;
      double cheb_radius = 0.0, hat_radius = 0.0;
      bool has_target = false;
    };
    const int n = net_.size();
    std::vector<Distilled> rounds(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      RegionOutput out = provider_.compute(i);
      m.comm.merge(out.comm);
      const DominatingRegion region(out.cells, net_.domain());
      if (region.empty()) continue;
      const geom::Circle cheb = region.chebyshev();
      if (!cheb.valid()) continue;
      rounds[static_cast<std::size_t>(i)] = {
          cheb.center, cheb.radius, region.max_dist_from(net_.position(i)),
          true};
    }
    m.min_circumradius = std::numeric_limits<double>::infinity();
    for (const Distilled& r : rounds) {
      if (!r.has_target) continue;
      m.max_circumradius = std::max(m.max_circumradius, r.cheb_radius);
      m.min_circumradius = std::min(m.min_circumradius, r.cheb_radius);
      m.max_hat_radius = std::max(m.max_hat_radius, r.hat_radius);
    }
    if (m.min_circumradius == std::numeric_limits<double>::infinity())
      m.min_circumradius = 0.0;
    for (int i = 0; i < n; ++i) {
      const Distilled& r = rounds[static_cast<std::size_t>(i)];
      if (!r.has_target) continue;
      const Vec2 ui = net_.position(i);
      if (geom::dist(ui, r.target) <= cfg_.epsilon) continue;
      net_.set_position(i, ui + (r.target - ui) * cfg_.alpha);
      const double actual = geom::dist(ui, net_.position(i));
      m.max_move = std::max(m.max_move, actual);
      if (actual > std::max(1e-6, 0.05 * cfg_.epsilon)) ++m.moved;
    }
    return m;
  }

  void finalize() {
    provider_.begin_round(net_, cfg_.k, 0);
    for (int i = 0; i < net_.size(); ++i) {
      RegionOutput out = provider_.compute(i);
      const DominatingRegion region(out.cells, net_.domain());
      net_.set_sensing_range(
          i, region.empty() ? 0.0 : region.max_dist_from(net_.position(i)));
    }
  }

 private:
  wsn::Network& net_;
  LaacadConfig cfg_;
  GlobalRegionProvider provider_;
  int round_ = 0;
};

// Forwards to another provider and counts compute() calls.
class CountingProvider final : public RegionProvider {
 public:
  explicit CountingProvider(std::shared_ptr<RegionProvider> inner)
      : inner_(std::move(inner)) {}

  void begin_round(const wsn::Network& net, int k, std::uint64_t epoch,
                   common::ThreadPool* pool) override {
    inner_->begin_round(net, k, epoch, pool);
  }
  RegionOutput compute(wsn::NodeId i) const override {
    calls_.fetch_add(1);
    return inner_->compute(i);
  }
  std::string_view name() const override { return inner_->name(); }

  long calls() const { return calls_.load(); }

 private:
  std::shared_ptr<RegionProvider> inner_;
  mutable std::atomic<long> calls_{0};
};

void expect_same_bits(const wsn::Network& a, const wsn::Network& b,
                      const std::string& when) {
  ASSERT_EQ(a.size(), b.size()) << when;
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position(i).x, b.position(i).x) << when << " node " << i;
    EXPECT_EQ(a.position(i).y, b.position(i).y) << when << " node " << i;
    EXPECT_EQ(a.sensing_range(i), b.sensing_range(i))
        << when << " node " << i;
  }
}

void expect_same_metrics(const RoundMetrics& a, const RoundMetrics& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.max_circumradius, b.max_circumradius) << "round " << a.round;
  EXPECT_EQ(a.min_circumradius, b.min_circumradius) << "round " << a.round;
  EXPECT_EQ(a.max_hat_radius, b.max_hat_radius) << "round " << a.round;
  EXPECT_EQ(a.max_move, b.max_move) << "round " << a.round;
  EXPECT_EQ(a.moved, b.moved) << "round " << a.round;
  EXPECT_EQ(a.comm.gather_requests, b.comm.gather_requests);
  EXPECT_EQ(a.comm.node_reports, b.comm.node_reports);
  EXPECT_EQ(a.comm.max_hops_used, b.comm.max_hops_used);
}

struct IncrementalCase {
  int k;
  double alpha;
  bool obstacle;  ///< central hole: targets inside it get projected out
  bool stacked;   ///< co-located pairs, so site separation is active
};

class IncrementalRounds : public ::testing::TestWithParam<IncrementalCase> {};

// Steps the incremental engine and the full-recompute reference side by
// side, disturbing both networks between passes the way the scenario and
// serving layers do — without begin_phase() — and requires identical bits
// after every pass.
TEST_P(IncrementalRounds, MatchFullRecomputeBitForBit) {
  const IncrementalCase c = GetParam();
  const wsn::Domain square = wsn::Domain::rectangle(200, 200);
  const wsn::Domain holed = square.with_rect_hole({70, 70}, {130, 130});
  const wsn::Domain& start = c.obstacle ? holed : square;
  // Growing the domain moves no node, yet changes every region on its rim.
  const wsn::Domain wide = wsn::Domain::rectangle(230, 200);
  const wsn::Domain grown =
      c.obstacle ? wide.with_rect_hole({70, 70}, {130, 130}) : wide;
  Rng rng(static_cast<std::uint64_t>(100 * c.k + 10 * c.alpha + c.obstacle));
  std::vector<Vec2> initial = wsn::deploy_uniform(start, 48, rng);
  if (c.stacked) {
    initial.resize(24);
    for (std::size_t i = 0; i < 24; ++i) initial.push_back(initial[i]);
  }
  wsn::Network inc(&start, initial, 60.0);
  wsn::Network ref(&start, initial, 60.0);

  LaacadConfig cfg = quick_config(c.k, c.alpha);
  cfg.epsilon = 1.0;
  auto counting =
      std::make_shared<CountingProvider>(make_global_provider());
  cfg.provider = counting;
  Engine engine(inc, cfg);
  FullRecompute reference(ref, cfg);

  // Each disturbance waits for a round that moved nothing, so it lands on
  // a fully reusable cache and a missed invalidation would show.
  const std::vector<std::function<void()>> disturbances = {
      [&] {  // external moves, as an event or a client would make
        for (const int i : {1, 17, 40}) {
          const Vec2 to = inc.position(i) + Vec2{7.5, -4.0};
          inc.set_position(i, to);
          ref.set_position(i, to);
        }
      },
      [&] {  // a jump across the domain: only the node's old position tells
             // its former neighbours that their regions changed
        const Vec2 far =
            inc.position(5).x < 100.0 ? Vec2{195, 195} : Vec2{5, 5};
        inc.set_position(5, far);
        ref.set_position(5, far);
      },
      [&] { (void)engine.region_of(3); },  // must not touch the cache
      [&] {  // no node moves, yet every region on the rim changes
        inc.rebind_domain(&grown);
        ref.rebind_domain(&grown);
      },
      [&] {  // a finalize between rounds, then keep stepping
        engine.finalize();
        reference.finalize();
        expect_same_bits(inc, ref, "mid-run finalize");
      },
  };
  long passes = 0;
  std::size_t applied = 0;
  for (int pass = 1; pass <= 400; ++pass) {
    const RoundMetrics a = engine.step();
    const RoundMetrics b = reference.step();
    ++passes;
    expect_same_metrics(a, b);
    expect_same_bits(inc, ref, "pass " + std::to_string(pass));
    if (a.moved != 0) continue;
    if (applied == disturbances.size()) break;
    disturbances[applied++]();
  }
  ASSERT_EQ(applied, disturbances.size()) << "never came to rest";
  engine.finalize();
  reference.finalize();
  ++passes;
  expect_same_bits(inc, ref, "final");

  // Not vacuous: converging rounds and the final pass reused results.
  EXPECT_LT(counting->calls(), passes * inc.size());
  if (c.obstacle) {
    // Nodes whose targets lie inside the hole end up pinned to its rim.
    bool on_rim = false;
    for (int i = 0; i < inc.size(); ++i)
      on_rim |= geom::dist_to_boundary(grown.holes()[0], inc.position(i)) <
                1e-3;
    EXPECT_TRUE(on_rim);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IncrementalRounds,
    ::testing::Values(IncrementalCase{1, 1.0, false, false},
                      IncrementalCase{1, 0.5, false, false},
                      IncrementalCase{2, 1.0, false, false},
                      IncrementalCase{2, 0.5, false, false},
                      IncrementalCase{3, 1.0, false, false},
                      IncrementalCase{3, 0.5, false, false},
                      IncrementalCase{2, 1.0, true, false},
                      IncrementalCase{2, 1.0, false, true}),
    [](const ::testing::TestParamInfo<IncrementalCase>& p) {
      const IncrementalCase& c = p.param;
      return "k" + std::to_string(c.k) +
             (c.alpha == 1.0 ? "_alpha1" : "_alpha05") +
             (c.obstacle ? "_obstacle" : "") + (c.stacked ? "_stacked" : "");
    });

// A provider that reports no support radius (the default) opts out of
// reuse: it is asked for every node on every pass.
TEST(Engine, InfiniteSupportProviderIsAskedForEveryNodeEveryPass) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  wsn::Network net(&d, {{10, 10}, {190, 10}, {100, 190}, {60, 60}}, 60.0);
  LaacadConfig cfg = quick_config(1);
  auto counting = std::make_shared<CountingProvider>(
      std::make_shared<StubSquareProvider>(geom::BBox{{40, 40}, {80, 80}}));
  cfg.provider = counting;
  Engine engine(net, cfg);
  const RunResult res = engine.run();
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(counting->calls(), static_cast<long>(res.rounds + 1) * net.size());
}

}  // namespace
}  // namespace laacad::core
