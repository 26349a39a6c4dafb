#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "coverage/grid_checker.hpp"
#include "scenario/apply.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace laacad::scenario {
namespace {

// ------------------------------------------------------------- parsing ----

TEST(ScenarioSpec, ParsesKeysCommentsAndEvents) {
  const ScenarioSpec spec = parse_scenario_string(R"(
# full-line comment
name     demo
domain   lshape
side     240      # trailing comment
nodes    25
k        3
seed     42
alpha    0.8
epsilon  0.25
max_rounds 120
backend  localized
max_hops 6
noise    0.02
battery  5e5
threads  4
grid_resolution 4

event converged fail_nodes count=5 pick=max_range
event round=30 drain_battery fraction=0.5
event converged add_nodes count=7 deploy=gaussian x=0.25 y=0.75 sigma=0.2
event converged resize_boundary scale=0.8
event converged jam_region x0=0.1 y0=0.1 x1=0.4 y1=0.4
)");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.domain, "lshape");
  EXPECT_DOUBLE_EQ(spec.side, 240.0);
  EXPECT_EQ(spec.nodes, 25);
  EXPECT_EQ(spec.k, 3);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.8);
  EXPECT_DOUBLE_EQ(spec.epsilon, 0.25);
  EXPECT_EQ(spec.max_rounds, 120);
  EXPECT_EQ(spec.backend, "localized");
  EXPECT_EQ(spec.max_hops, 6);
  EXPECT_EQ(spec.num_threads, 4);
  ASSERT_EQ(spec.events.size(), 5u);

  EXPECT_EQ(spec.events[0].type, EventType::kFailNodes);
  EXPECT_EQ(spec.events[0].trigger, Trigger::kOnConvergence);
  EXPECT_EQ(spec.events[0].count, 5);
  EXPECT_EQ(spec.events[0].pick, "max_range");

  EXPECT_EQ(spec.events[1].type, EventType::kDrainBattery);
  EXPECT_EQ(spec.events[1].trigger, Trigger::kAtRound);
  EXPECT_EQ(spec.events[1].round, 30);
  EXPECT_DOUBLE_EQ(spec.events[1].fraction, 0.5);

  EXPECT_EQ(spec.events[2].type, EventType::kAddNodes);
  EXPECT_EQ(spec.events[2].deploy, "gaussian");
  EXPECT_DOUBLE_EQ(spec.events[2].at.x, 0.25);
  EXPECT_DOUBLE_EQ(spec.events[2].at.y, 0.75);
  EXPECT_DOUBLE_EQ(spec.events[2].sigma, 0.2);

  EXPECT_EQ(spec.events[3].type, EventType::kResizeBoundary);
  EXPECT_DOUBLE_EQ(spec.events[3].scale, 0.8);

  EXPECT_EQ(spec.events[4].type, EventType::kJamRegion);
  EXPECT_DOUBLE_EQ(spec.events[4].lo.x, 0.1);
  EXPECT_DOUBLE_EQ(spec.events[4].hi.y, 0.4);
}

TEST(ScenarioSpec, RejectsMalformedInputWithLineNumbers) {
  auto expect_error = [](const std::string& text, const std::string& needle) {
    try {
      parse_scenario_string(text);
      FAIL() << "expected parse error containing '" << needle << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  };
  expect_error("unknown_key 1\n", "unknown key");
  expect_error("nodes forty\n", "expects an integer");
  expect_error("side big\n", "expects a number");
  expect_error("seed abc\n", "unsigned integer");
  expect_error("seed 12x3\n", "unsigned integer");
  expect_error("seed -1\n", "unsigned integer");
  expect_error("name a b\n", "key value");
  expect_error("event converged explode\n", "unknown event type");
  expect_error("event soon fail_nodes count=1\n", "unknown trigger");
  expect_error("event converged fail_nodes count=1 pick=famous\n", "pick");
  expect_error("event converged fail_nodes bogus\n", "name=value");
  expect_error("event converged add_nodes count=3 scale=2\n",
               "does not apply");
  // Region rects only apply to pick=region: a forgotten pick= is an error,
  // not a silently-random failure event.
  expect_error("event converged fail_nodes count=6 x0=0.0 y0=0.0 x1=0.3\n",
               "does not apply");
  expect_error(
      "event converged fail_nodes count=0 pick=region x0=0.5 x1=0.2\n",
      "empty");
  expect_error(
      "event converged fail_nodes count=0 pick=region x0=-0.2 x1=0.5\n",
      "fractions");
  expect_error("event converged add_nodes count=6 deploy=corner x=0.2\n",
               "does not apply");
  expect_error("event converged fail_nodes count=\n", "name=value");
  expect_error("event converged drain_battery epochs=0 fraction=0\n",
               "drains nothing");
  expect_error("event converged jam_region x0=0.5 x1=0.2\n", "empty");
  expect_error("k 0\n", "k must be >= 1");
  expect_error("nodes 3\nk 5\n", "nodes must be >= k");
  expect_error("alpha 1.5\n", "alpha");
  expect_error("epsilon 0\n", "epsilon");
  expect_error("max_rounds 0\n", "max_rounds");
  // Error messages carry the 1-based source line.
  expect_error("name x\n\nnodes oops\n", "line 3");
  // Round-triggered events must be scheduled in order.
  expect_error(
      "event round=50 fail_nodes count=1\nevent round=20 fail_nodes count=1\n",
      "non-decreasing");
  // The node count is bounded, arrivals included; each of the two arrivals
  // below fits on its own.
  const std::string over = std::to_string(kMaxNodes + 1);
  const std::string half = std::to_string(kMaxNodes / 2);
  expect_error("nodes " + over + "\n", "nodes " + over + " is above kMaxNodes");
  expect_error("event converged add_nodes count=" + over + "\n",
               "line 1: add_nodes count " + over + " is above kMaxNodes");
  expect_error("nodes 40\nevent converged add_nodes count=" + half +
                   "\nevent converged add_nodes count=" + half + "\n",
               "nodes 40 plus " + std::to_string(2 * (kMaxNodes / 2)) +
                   " add_nodes arrivals is above kMaxNodes");
  EXPECT_NO_THROW(parse_scenario_string(
      "nodes 40\nevent converged add_nodes count=" +
      std::to_string(kMaxNodes - 40) + "\n"));
}

TEST(ScenarioSpec, ShippedScenarioFilesParse) {
  const std::string dir = std::string(LAACAD_SOURCE_DIR) + "/scenarios/";
  for (const char* file : {"cascade.scn", "staged_arrivals.scn",
                           "shrinking_boundary.scn", "churn_localized.scn"}) {
    SCOPED_TRACE(file);
    ScenarioSpec spec;
    ASSERT_NO_THROW(spec = load_scenario_file(dir + file));
    EXPECT_NE(spec.name, "unnamed");
    EXPECT_FALSE(spec.events.empty());
  }
}

TEST(ScenarioSpec, FileNameBecomesDefaultName) {
  const std::string dir = std::string(LAACAD_SOURCE_DIR) + "/scenarios/";
  const ScenarioSpec spec = load_scenario_file(dir + "cascade.scn");
  EXPECT_EQ(spec.name, "cascade");  // set explicitly in the file
}

// -------------------------------------------------------------- runner ----

/// Compact cascade used across the runner tests: small enough to run in a
/// unit test, rich enough to hit failures, drain, arrivals, and a jam.
constexpr const char* kTimelineSpec = R"(
name    timeline
domain  square
side    200
nodes   24
k       2
seed    9
max_rounds 200
grid_resolution 4
event converged fail_nodes count=4 pick=random
event converged add_nodes count=6 deploy=corner
event converged jam_region x0=0.4 y0=0.4 x1=0.6 y1=0.6
)";

TEST(ScenarioRunner, ExecutesTimelineAndRestoresCoverage) {
  ScenarioRunner runner(parse_scenario_string(kTimelineSpec));
  const ScenarioResult result = runner.run();

  ASSERT_EQ(result.phases.size(), 4u);  // initial + one per event
  ASSERT_EQ(result.events.size(), 3u);
  EXPECT_FALSE(result.aborted);
  EXPECT_TRUE(result.all_converged);

  // Node accounting: 24 - 4 + 6 = 26.
  EXPECT_EQ(result.phases[0].nodes, 24);
  EXPECT_EQ(result.phases[1].nodes, 20);
  EXPECT_EQ(result.phases[2].nodes, 26);
  EXPECT_EQ(result.phases[3].nodes, 26);
  EXPECT_EQ(result.events[0].nodes_before, 24);
  EXPECT_EQ(result.events[0].nodes_after, 20);

  // Every redeployment phase restored k-coverage, and the final deployment
  // verifies against a fresh GridChecker pass at the assigned ranges.
  for (const PhaseRecord& p : result.phases) {
    EXPECT_GE(p.coverage_min_depth, 2) << "phase " << p.phase;
    EXPECT_DOUBLE_EQ(p.covered_fraction_k, 1.0) << "phase " << p.phase;
  }
  EXPECT_TRUE(result.final_coverage_ok);
  const auto check = cov::grid_coverage(
      runner.domain(), cov::sensing_disks(runner.network()), 4.0);
  EXPECT_GE(check.min_depth, 2);

  // The jam event swapped in a domain with a hole; no node sits inside it.
  ASSERT_EQ(runner.domain().holes().size(), 1u);
  for (const geom::Vec2 p : runner.network().positions())
    EXPECT_TRUE(runner.domain().contains(p));

  // Global round bookkeeping: phases tile the timeline.
  int expected_start = 0;
  for (const PhaseRecord& p : result.phases) {
    EXPECT_EQ(p.start_round, expected_start);
    expected_start += p.rounds;
  }
  EXPECT_EQ(result.total_rounds, expected_start);
}

TEST(ScenarioRunner, RoundTriggeredEventInterruptsUnconvergedPhase) {
  const ScenarioSpec spec = parse_scenario_string(R"(
name    interrupt
side    200
nodes   20
k       2
seed    4
max_rounds 200
event round=5 fail_nodes count=3 pick=random
)");
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  ASSERT_EQ(result.phases.size(), 2u);
  // Phase 0 was cut at round 5, well before convergence.
  EXPECT_EQ(result.phases[0].rounds, 5);
  EXPECT_FALSE(result.phases[0].converged);
  EXPECT_EQ(result.events[0].global_round, 5);
  EXPECT_EQ(result.events[0].idle_rounds, 0);
  // The post-disruption phase then converges normally.
  EXPECT_TRUE(result.phases[1].converged);
  EXPECT_EQ(result.phases[1].nodes, 17);
}

TEST(ScenarioRunner, ConvergedNetworkIdlesUntilScheduledRound) {
  const ScenarioSpec spec = parse_scenario_string(R"(
name    idle
side    150
nodes   12
k       1
seed    2
max_rounds 200
event round=150 fail_nodes count=2 pick=random
)");
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  ASSERT_EQ(result.events.size(), 1u);
  ASSERT_LT(result.phases[0].rounds, 150);  // converged early
  EXPECT_TRUE(result.phases[0].converged);
  // The clock fast-forwarded to the scheduled disruption.
  EXPECT_EQ(result.events[0].global_round, 150);
  EXPECT_EQ(result.events[0].idle_rounds, 150 - result.phases[0].rounds);
  EXPECT_EQ(result.phases[1].start_round, 150);
}

TEST(ScenarioRunner, RegionFailureRemovesExactlyTheNodesInside) {
  const ScenarioSpec spec = parse_scenario_string(R"(
name    blackout
side    200
nodes   20
k       1
seed    6
max_rounds 200
event converged fail_nodes count=0 pick=region x0=0.0 y0=0.0 x1=0.5 y1=0.5
)");
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  ASSERT_EQ(result.events.size(), 1u);
  const int killed =
      result.events[0].nodes_before - result.events[0].nodes_after;
  EXPECT_GT(killed, 0);  // a converged uniform deployment populates the rect
  // Survivors redeployed and restored 1-coverage of the full square.
  EXPECT_TRUE(result.final_coverage_ok);
}

TEST(ScenarioRunner, DrainBatteryKillsDepletedNodes) {
  // fraction=1 wipes every battery: below k nodes, the scenario aborts.
  const ScenarioSpec spec = parse_scenario_string(R"(
name    drained
side    150
nodes   10
k       1
seed    3
max_rounds 200
event converged drain_battery fraction=1
)");
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.events[0].nodes_after, 0);
  EXPECT_FALSE(result.final_coverage_ok);
  EXPECT_NE(result.abort_reason.find("below k"), std::string::npos);
}

TEST(ScenarioRunner, ResizeBoundaryShrinksRangesAndLoads) {
  const ScenarioSpec spec = parse_scenario_string(R"(
name    shrink
side    300
nodes   20
k       2
seed    12
max_rounds 250
event converged resize_boundary scale=0.5
)");
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  ASSERT_EQ(result.phases.size(), 2u);
  EXPECT_TRUE(result.final_coverage_ok);
  // Same nodes, a quarter of the area: the max range must drop sharply.
  EXPECT_LT(result.phases[1].final_max_range,
            0.75 * result.phases[0].final_max_range);
  EXPECT_LT(result.phases[1].load.max_load, result.phases[0].load.max_load);
  // The new domain really is half-sized and every node moved inside it.
  EXPECT_NEAR(runner.domain().bbox().width(), 150.0, 1e-9);
  for (const geom::Vec2 p : runner.network().positions())
    EXPECT_TRUE(runner.domain().contains(p));
}

TEST(ScenarioRunner, BatteryMetricsTrackDrain) {
  const ScenarioSpec spec = parse_scenario_string(R"(
name    battery
side    150
nodes   12
k       1
seed    5
battery 1000000
max_rounds 200
event converged drain_battery fraction=0.25
)");
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  ASSERT_EQ(result.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(result.phases[0].battery_mean, 1.0e6);
  EXPECT_DOUBLE_EQ(result.phases[1].battery_mean, 7.5e5);
  EXPECT_DOUBLE_EQ(result.phases[1].battery_min, 7.5e5);
}

TEST(ScenarioRunner, ArrivalPastKMaxNodesIsRejectedBeforeTouchingTheWorld) {
  ScenarioSpec spec;
  spec.nodes = 10;
  spec.k = 1;
  World w = build_world(spec);
  // The parser bounds one event's count; the world bounds the running total
  // (the daemon admits events one at a time).
  const Event ev =
      parse_event_body("add_nodes count=" + std::to_string(kMaxNodes));
  Rng untouched = w.rng;
  EXPECT_THROW(apply_event(w, ev, 0, 0), std::runtime_error);
  EXPECT_EQ(w.net->size(), 10);
  EXPECT_EQ(w.battery.size(), 10u);
  EXPECT_EQ(w.rng.engine()(), untouched.engine()());
}

TEST(ScenarioRunner, JamRegionOutsideDomainIsRejected) {
  // L-shape: the top-right quadrant is outside the outer ring, so a jam
  // rect entirely inside the notch cannot become a hole.
  const ScenarioSpec spec = parse_scenario_string(R"(
name    notch_jam
domain  lshape
side    200
nodes   14
k       1
seed    7
max_rounds 200
event converged jam_region x0=0.8 y0=0.8 x1=0.95 y1=0.95
)");
  ScenarioRunner runner(spec);
  EXPECT_THROW(runner.run(), std::runtime_error);
}

TEST(ScenarioRunner, JamSwallowingWholeDomainIsRejected) {
  const ScenarioSpec spec = parse_scenario_string(R"(
name    total_jam
side    200
nodes   10
k       1
seed    2
max_rounds 200
event converged jam_region x0=0.0 y0=0.0 x1=1.0 y1=1.0
)");
  ScenarioRunner runner(spec);
  EXPECT_THROW(runner.run(), std::runtime_error);
}

TEST(ScenarioRunner, OverlappingJamRegionsUnion) {
  // Two jams sharing a 20 x 20 m corner: the blocked region must be their
  // union (40*40 + 40*40 - 20*20 = 2800 m^2), achieved by adding only the
  // *new* area of the second jam as disjoint holes — never double-counted,
  // never rejected.
  const ScenarioSpec spec = parse_scenario_string(R"(
name    double_jam
side    200
nodes   16
k       1
seed    7
max_rounds 200
event converged jam_region x0=0.4 y0=0.4 x1=0.6 y1=0.6
event converged jam_region x0=0.5 y0=0.5 x1=0.7 y1=0.7
)");
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  EXPECT_NEAR(runner.domain().area(), 200.0 * 200.0 - 2800.0, 1e-6);
  double holes_area = 0.0;
  for (const auto& h : runner.domain().holes())
    holes_area += geom::area(h);
  EXPECT_NEAR(holes_area, 2800.0, 1e-6);
  // The union is blocked and its complement is not.
  EXPECT_FALSE(runner.domain().contains({100.0, 100.0}));  // in both jams
  EXPECT_FALSE(runner.domain().contains({85.0, 85.0}));    // first jam only
  EXPECT_FALSE(runner.domain().contains({135.0, 135.0}));  // second jam only
  EXPECT_TRUE(runner.domain().contains({85.0, 135.0}));    // in neither
  for (const geom::Vec2 p : runner.network().positions())
    EXPECT_TRUE(runner.domain().contains(p));
}

TEST(ScenarioRunner, RedundantJamInsideExistingJamIsANoOp) {
  // Union semantics: re-jamming already-blocked ground adds no hole and
  // swaps no domain, but the event still fires and ends the phase.
  const ScenarioSpec spec = parse_scenario_string(R"(
name    rejam
side    200
nodes   16
k       1
seed    7
max_rounds 200
event converged jam_region x0=0.3 y0=0.3 x1=0.7 y1=0.7
event converged jam_region x0=0.4 y0=0.4 x1=0.6 y1=0.6
)");
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  ASSERT_EQ(result.events.size(), 2u);
  EXPECT_NE(result.events[1].detail.find("no new area"), std::string::npos);
  EXPECT_NEAR(runner.domain().area(), 200.0 * 200.0 - 80.0 * 80.0, 1e-6);
}

TEST(ScenarioRunner, DeclaredObstaclesArePunchedAtSetup) {
  // Two overlapping obstacle lines union exactly like jams, and the
  // deployment never lands on them.
  const ScenarioSpec spec = parse_scenario_string(R"(
name    obstacles
side    200
nodes   16
k       1
seed    9
max_rounds 250
obstacle 0.2 0.2 0.4 0.4
obstacle 0.3 0.3 0.5 0.5
)");
  ASSERT_EQ(spec.obstacles.size(), 2u);
  ScenarioRunner runner(spec);
  EXPECT_NEAR(runner.domain().area(), 200.0 * 200.0 - 2800.0, 1e-6);
  for (const geom::Vec2 p : runner.network().positions())
    EXPECT_TRUE(runner.domain().contains(p));
  const ScenarioResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  EXPECT_TRUE(result.final_coverage_ok);
}

TEST(ScenarioSpec, RejectsMalformedObstacles) {
  EXPECT_THROW(parse_scenario_string("obstacle 0.2 0.2 0.4\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_string("obstacle 0.4 0.2 0.2 0.4\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_string("obstacle 0.2 0.2 0.4 1.4\n"),
               std::runtime_error);
}

TEST(ScenarioRunner, StackedDeployStartsInGroupsOfK) {
  const ScenarioSpec spec = parse_scenario_string(R"(
name    stacked_start
side    200
deploy  stacked
nodes   14
k       3
seed    11
max_rounds 1
)");
  ScenarioRunner runner(spec);
  // 14 nodes at k = 3 rounds down to 4 anchors x 3 nodes.
  EXPECT_EQ(runner.network().size(), 12);
  // Every node sits within the 1e-3 jitter of some anchor triple: the
  // multiset of pairwise-close groups has exactly 4 clusters.
  const auto& pts = runner.network().positions();
  int close_pairs = 0;
  for (std::size_t a = 0; a < pts.size(); ++a)
    for (std::size_t b = a + 1; b < pts.size(); ++b)
      if (geom::dist(pts[a], pts[b]) < 1.0) ++close_pairs;
  EXPECT_EQ(close_pairs, 4 * 3);  // 4 groups x C(3,2) pairs each
}

TEST(ScenarioRunner, JamRegionClipsToNonRectangularOuterRing) {
  // The jam rect straddles the L-shape notch boundary: only the in-domain
  // part may become a hole (Domain requires holes inside the outer ring).
  const ScenarioSpec spec = parse_scenario_string(R"(
name    straddle_jam
domain  lshape
side    200
nodes   16
k       1
seed    13
max_rounds 250
event converged jam_region x0=0.3 y0=0.55 x1=0.6 y1=0.8
)");
  ScenarioRunner runner(spec);
  const ScenarioResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  ASSERT_EQ(runner.domain().holes().size(), 1u);
  // The hole was clipped: smaller than the requested rect (0.3 x 0.25 of a
  // 200 x 200 bbox = 3000 m^2 requested, only x < 100 survives).
  const double hole_area = geom::area(runner.domain().holes()[0]);
  EXPECT_GT(hole_area, 0.0);
  EXPECT_LT(hole_area, 3000.0 - 1.0);
  for (const geom::Vec2 p : runner.network().positions())
    EXPECT_TRUE(runner.domain().contains(p));
}

// ------------------------------------------------- determinism & JSON ----

std::string run_to_json(const std::string& text, int threads) {
  ScenarioSpec spec = parse_scenario_string(text);
  spec.num_threads = threads;
  ScenarioRunner runner(std::move(spec));
  const ScenarioResult result = runner.run();
  std::ostringstream out;
  result.write_json(out);
  return out.str();
}

TEST(ScenarioRunner, FullTimelineBitIdenticalAcrossThreadCounts) {
  const std::string serial = run_to_json(kTimelineSpec, 1);
  EXPECT_EQ(serial, run_to_json(kTimelineSpec, 2));
  EXPECT_EQ(serial, run_to_json(kTimelineSpec, 5));
  EXPECT_EQ(serial, run_to_json(kTimelineSpec, 0));  // hardware concurrency
}

TEST(ScenarioRunner, LocalizedBackendBitIdenticalAcrossThreadCounts) {
  const std::string spec = R"(
name    localized_churn
side    200
nodes   20
k       2
seed    8
backend localized
max_hops 8
max_rounds 150
event converged fail_nodes count=3 pick=random
event converged add_nodes count=4 deploy=uniform
)";
  EXPECT_EQ(run_to_json(spec, 1), run_to_json(spec, 4));
}

TEST(ScenarioRunner, JsonEmitterProducesWellFormedDocument) {
  const std::string json = run_to_json(kTimelineSpec, 1);
  // Structural spot-checks (no JSON parser in the toolchain): key fields
  // present, braces/brackets balanced, thread count never serialized.
  EXPECT_NE(json.find("\"schema\": \"laacad.scenario.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"timeline\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"final_coverage_ok\": true"), std::string::npos);
  EXPECT_EQ(json.find("threads"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace laacad::scenario
