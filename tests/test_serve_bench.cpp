// serve_bench contracts: the `.wl` workload format round-trips and fails
// loudly, the expanded request schedule is a pure function of the spec,
// and a full bench run against an in-process daemon over real loopback TCP
// produces a report whose "deterministic" subtree is byte-identical across
// runs and across engine thread counts — while the run itself completes
// with zero protocol and transport errors.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/flatjson.hpp"
#include "obs/histogram.hpp"
#include "scenario/spec.hpp"
#include "serve/bench.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace laacad::serve {
namespace {

constexpr const char* kTestWorkload = R"(
name        bench_test
requests    120
rate        0            # closed loop: the fast, clock-independent mode
connections 2
seed        5
knn_k       4
mix         knn=4 coverage=2 load=1 stats=1 health=1
churn       every=30 fail_nodes count=1 pick=random
)";

constexpr const char* kBaseSpec = R"(
name      serve_bench_test
domain    square
side      200
nodes     24
k         2
seed      9
epsilon   0.5
max_rounds 120
battery   2.0e6
grid_resolution 5
)";

// ------------------------------------------------------ .wl round trip ----

TEST(Workload, ParseFormatIdentity) {
  const WorkloadSpec spec = parse_workload_string(kTestWorkload);
  EXPECT_EQ(spec.name, "bench_test");
  EXPECT_EQ(spec.requests, 120);
  EXPECT_EQ(spec.rate, 0.0);
  EXPECT_EQ(spec.connections, 2);
  EXPECT_EQ(spec.seed, 5u);
  EXPECT_EQ(spec.knn_k, 4);
  EXPECT_EQ(spec.mix_knn, 4);
  EXPECT_EQ(spec.mix_health, 1);
  ASSERT_EQ(spec.churn.size(), 1u);
  EXPECT_EQ(spec.churn[0].every, 30);
  EXPECT_EQ(spec.churn[0].body, "fail_nodes count=1 pick=random");

  // Canonical echo is a fixed point: format(parse(format(spec))) stabilizes
  // after one round.
  const std::string once = format_workload(spec);
  const std::string twice = format_workload(parse_workload_string(once));
  EXPECT_EQ(once, twice);
}

TEST(Workload, ShippedWorkloadsParse) {
  for (const char* name : {"serve_mix.wl", "serve_smoke.wl"}) {
    const std::string path =
        std::string(LAACAD_SOURCE_DIR) + "/bench/workloads/" + name;
    const WorkloadSpec spec = load_workload_file(path);
    EXPECT_GT(spec.requests, 0) << name;
    EXPECT_FALSE(expand_schedule(spec, 300.0).empty()) << name;
  }
}

TEST(Workload, ParseErrorsNameTheLine) {
  EXPECT_THROW(parse_workload_string("requests nope\n"), std::runtime_error);
  EXPECT_THROW(parse_workload_string("bogus_key 3\n"), std::runtime_error);
  EXPECT_THROW(parse_workload_string("mix knn\n"), std::runtime_error);
  EXPECT_THROW(parse_workload_string("requests 10\nmix knn=0\n"),
               std::runtime_error);  // weights sum to zero
  EXPECT_THROW(parse_workload_string("churn every=10 not_an_event x=1\n"),
               std::runtime_error);  // churn body validated at parse time
  try {
    parse_workload_string("name ok\nrequests -3\n");
    FAIL() << "negative requests accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("requests"), std::string::npos);
  }
}

// ------------------------------------------------- schedule expansion ----

TEST(Workload, ScheduleIsAPureFunctionOfSpec) {
  const WorkloadSpec spec = parse_workload_string(kTestWorkload);
  const auto a = expand_schedule(spec, 200.0);
  const auto b = expand_schedule(spec, 200.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op) << i;
    EXPECT_EQ(a[i].line, b[i].line) << i;
  }

  // 120 queries + one churn event per 30 queries.
  std::map<std::string, int> per_op;
  for (const ScheduledRequest& r : a) ++per_op[r.op];
  int queries = 0;
  for (const auto& [op, n] : per_op)
    if (op != "event") queries += n;
  EXPECT_EQ(queries, 120);
  EXPECT_EQ(per_op["event"], 4);
  // Every weighted verb actually occurs at this size.
  for (const char* op : {"knn", "coverage", "load", "stats", "health"})
    EXPECT_GT(per_op[op], 0) << op;

  // A different seed reshuffles; a different side rescales coordinates.
  WorkloadSpec other = spec;
  other.seed = 6;
  const auto c = expand_schedule(other, 200.0);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i)
    any_diff = a[i].line != c[i].line;
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------- full TCP run ----

/// One complete bench pass against a fresh in-process daemon at the given
/// engine thread count; returns the rendered report document.
std::string run_report(int num_threads) {
  scenario::ScenarioSpec spec = scenario::parse_scenario_string(kBaseSpec);
  spec.num_threads = num_threads;
  const double side = spec.side;

  ServeConfig cfg;
  cfg.spec = std::move(spec);
  CoverageService svc(std::move(cfg));
  svc.start();
  TcpServer server(svc, /*port=*/0);
  std::thread server_thread([&] { server.serve(); });

  const WorkloadSpec wl = parse_workload_string(kTestWorkload);
  const BenchResult result = run_bench(wl, side, server.port());
  server_thread.join();

  // A healthy closed-loop run answers everything, correctly.
  EXPECT_EQ(result.transport_errors, 0u);
  std::uint64_t ok = 0, errors = 0, scheduled = 0;
  for (const BenchVerbStats& v : result.per_op) {
    ok += v.ok;
    errors += v.errors;
    scheduled += v.scheduled;
  }
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(ok, scheduled);
  EXPECT_FALSE(result.final_stats.empty());

  std::ostringstream out;
  write_bench_report(result, out);
  return out.str();
}

TEST(ServeBench, DeterministicSubtreeIsByteStableAcrossRunsAndThreads) {
  const std::string first = run_report(1);
  const std::string again = run_report(1);
  const std::string threaded = run_report(2);

  // Reports are single JSON documents; compare the deterministic subtree
  // byte-for-byte after collapsing to one line (get_raw needs one line).
  const auto deterministic = [](const std::string& report) {
    std::string flat;
    flat.reserve(report.size());
    for (const char c : report)
      if (c != '\n') flat += c;
    // Indented documents put spaces after ':' and between items; the
    // subtree is still a byte-range slice, so identical layout + identical
    // values => identical slice.
    std::string raw;
    EXPECT_TRUE(flatjson::get_raw(flat, "deterministic", &raw)) << report;
    return raw;
  };

  const std::string base = deterministic(first);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(deterministic(again), base);
  EXPECT_EQ(deterministic(threaded), base);

  // And the subtree carries the run's error and response counts.
  std::string flat = base;
  double n = -1.0;
  EXPECT_TRUE(flatjson::get_number(flat, "protocol_errors", &n));
  EXPECT_EQ(n, 0.0);
  EXPECT_TRUE(flatjson::get_number(flat, "transport_errors", &n));
  EXPECT_EQ(n, 0.0);
  EXPECT_TRUE(flatjson::get_number(flat, "responses_ok", &n));
  EXPECT_EQ(n, 124.0);  // 120 queries + 4 churn events

  // The timing side of the same report embeds the server-side breakdown.
  // "latency" also names the per-op client blocks, so scope the scan to
  // the "server" subtree first.
  std::string timing_flat;
  for (const char c : first)
    if (c != '\n') timing_flat += c;
  std::string server_raw, raw;
  ASSERT_TRUE(flatjson::get_raw(timing_flat, "server", &server_raw)) << first;
  EXPECT_TRUE(flatjson::get_raw(server_raw, "serve", &raw));
  EXPECT_NE(raw.find("snapshot_age_s"), std::string::npos);

  // Per-op client blocks: every scheduled request is counted once, the
  // percentiles are ordered, and the embedded histogram's buckets sum to
  // its count (Histogram::from_json refuses a document where they don't).
  // The server's "latency" block splits each verb into its four phases.
  std::string scheduled_raw, timing_raw, per_op_raw, server_latency;
  ASSERT_TRUE(flatjson::get_raw(base, "scheduled_per_op", &scheduled_raw));
  ASSERT_TRUE(flatjson::get_raw(server_raw, "latency", &server_latency));
  ASSERT_TRUE(flatjson::get_raw(timing_flat, "timing", &timing_raw));
  ASSERT_TRUE(flatjson::get_raw(timing_raw, "per_op", &per_op_raw));
  for (const char* op : kBenchOps) {
    double scheduled = 0.0;
    ASSERT_TRUE(flatjson::get_number(scheduled_raw, op, &scheduled)) << op;
    if (scheduled == 0.0) continue;
    std::string block;
    ASSERT_TRUE(flatjson::get_raw(per_op_raw, op, &block)) << op;
    for (const char* section : {"latency", "service"}) {
      std::string p;
      ASSERT_TRUE(flatjson::get_raw(block, section, &p))
          << op << ' ' << section;
      double count = 0.0, p50 = 0.0, p99 = 0.0, max_us = 0.0;
      EXPECT_TRUE(flatjson::get_number(p, "count", &count));
      EXPECT_TRUE(flatjson::get_number(p, "p50_us", &p50));
      EXPECT_TRUE(flatjson::get_number(p, "p99_us", &p99));
      EXPECT_TRUE(flatjson::get_number(p, "max_us", &max_us));
      EXPECT_EQ(count, scheduled) << op << ' ' << section;
      EXPECT_LE(p50, p99) << op << ' ' << section;
      EXPECT_LE(p99, max_us) << op << ' ' << section;
    }
    std::string hist_raw;
    ASSERT_TRUE(flatjson::get_raw(block, "latency_hist", &hist_raw)) << op;
    obs::Histogram hist;
    EXPECT_TRUE(obs::Histogram::from_json(hist_raw, &hist)) << hist_raw;
    EXPECT_EQ(static_cast<double>(hist.count()), scheduled) << op;
    std::string server_verb;
    ASSERT_TRUE(flatjson::get_raw(server_latency, op, &server_verb)) << op;
    for (const char* phase : {"total", "queue", "query", "serialize"}) {
      std::string p;
      double count = 0.0;
      EXPECT_TRUE(flatjson::get_raw(server_verb, phase, &p))
          << op << ' ' << phase;
      EXPECT_TRUE(flatjson::get_number(p, "count", &count));
      EXPECT_GE(count, scheduled) << op << ' ' << phase;
    }
  }
}

}  // namespace
}  // namespace laacad::serve
