// Observability layer tests — the three contracts the obs layer makes:
//
//  1. Trace structure is deterministic: the TRACE json is valid JSON (parsed
//     here with a minimal in-test parser, no dependencies), every engine
//     round stage appears as a span, and span nesting (the deterministic
//     `depth` arg) matches the round hierarchy for every thread count.
//  2. Kernel counter totals read through obs::CounterScope are exact and
//     bit-equal across num_threads in {1, 2, 8} — the pool folds worker
//     deltas back into the measuring thread.
//  3. Tracing never leaks into deterministic artifacts: a traced campaign's
//     write_json output is byte-identical to an untraced run's.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "common/rng.hpp"
#include "laacad/engine.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "wsn/deployment.hpp"

namespace laacad::obs {
namespace {

// ------------------------------------------------- minimal JSON parser ----
// Just enough JSON to validate a trace file in-test: objects, arrays,
// strings, numbers, true/false/null. Throws on any malformed input, which
// is exactly the "trace file is valid JSON" assertion.

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end())
      throw std::runtime_error("json: missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            pos_ += 4;       // validated length only; tests compare
            out += '?';      // structure, not unicode content
            break;
          }
          default: out += e; break;
        }
      } else {
        out += c;
      }
    }
  }

  Json value() {
    skip_ws();
    Json v;
    const char c = peek();
    if (c == '{') {
      ++pos_;
      v.kind = Json::Kind::kObject;
      skip_ws();
      if (!consume('}')) {
        do {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':');
          v.object.emplace(std::move(key), value());
          skip_ws();
        } while (consume(','));
        expect('}');
      }
    } else if (c == '[') {
      ++pos_;
      v.kind = Json::Kind::kArray;
      skip_ws();
      if (!consume(']')) {
        do {
          v.array.push_back(value());
          skip_ws();
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.string = parse_string();
    } else if (literal("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.kind = Json::Kind::kBool;
    } else if (literal("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      v.kind = Json::Kind::kNumber;
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-' || text_[pos_] == '+' ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E'))
        ++pos_;
      if (pos_ == start) fail("unexpected character");
      v.number = std::stod(text_.substr(start, pos_ - start));
    }
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

Json parse_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return JsonParser(buf.str()).parse();
}

std::string temp_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "obs_" + info->test_suite_name() + "_" +
         info->name() + "_" + stem;
}

// --------------------------------------------------- trace file shape ----

/// One parsed ph:"X" event, reduced to its deterministic fields.
struct Span {
  std::string name;
  int tid = 0;
  int depth = 0;
  bool has_n = false;
  double n = 0.0;
};

std::vector<Span> complete_events(const Json& trace) {
  std::vector<Span> out;
  for (const Json& ev : trace.at("traceEvents").array) {
    if (ev.at("ph").string != "X") continue;
    Span s;
    s.name = ev.at("name").string;
    s.tid = static_cast<int>(ev.at("tid").number);
    s.depth = static_cast<int>(ev.at("args").at("depth").number);
    if (ev.at("args").has("n")) {
      s.has_n = true;
      s.n = ev.at("args").at("n").number;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void run_small_engine(int threads, const std::vector<geom::Vec2>& initial,
                      const wsn::Domain& domain) {
  core::LaacadConfig cfg;
  cfg.k = 2;
  cfg.epsilon = 1.0;
  cfg.max_rounds = 8;
  cfg.num_threads = threads;
  wsn::Network net(&domain, initial, 90.0);
  core::Engine engine(net, cfg);
  engine.run();
}

TEST(Trace, EmitsValidJsonWithAllRoundStages) {
  const std::string path = temp_path("stages.json");
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(7);
  const auto initial = wsn::deploy_uniform(d, 30, rng);

  start_trace(path);
  run_small_engine(2, initial, d);
  // One localized scenario phase adds the provider's snapshot stages and
  // the runner's verification.
  scenario::ScenarioRunner(scenario::parse_scenario_string(R"(
name trace_stages
domain square
side 200
nodes 16
seed 3
backend localized
max_rounds 3
)")).run();
  const TraceReport report = stop_trace();
  EXPECT_GT(report.spans, 0u);
  EXPECT_GE(report.threads, 1u);

  const Json trace = parse_file(path);  // throws -> test failure if invalid
  EXPECT_EQ(trace.at("displayTimeUnit").string, "ms");
  const auto spans = complete_events(trace);
  std::set<std::string> names;
  for (const Span& s : spans) names.insert(s.name);
  // The engine round stages of the acceptance contract plus the per-round
  // container, the finalize pass and load report, the localized provider's
  // snapshot stages, and the scenario runner's verification with its two
  // checks.
  for (const char* stage :
       {"round", "grid_rebuild", "dirty_scan", "region_fanout", "comm_gather",
        "targets", "movement", "finalize", "boundaries", "comm_build",
        "verify", "load_report", "grid_coverage", "connectivity"})
    EXPECT_TRUE(names.count(stage)) << "missing stage span: " << stage;
  // Recompute counts label the fan-out and finalize spans.
  for (const Span& s : spans) {
    if (s.name == "region_fanout" || s.name == "finalize") {
      EXPECT_TRUE(s.has_n) << s.name << " carries its recompute count";
    }
  }
  // Parallel fan-out ran on a pool, so chunk spans must exist too.
  EXPECT_TRUE(names.count("pool_chunk"));
  std::remove(path.c_str());
}

TEST(Trace, SpanNestingMatchesRoundHierarchy) {
  const std::string path = temp_path("nesting.json");
  wsn::Domain d = wsn::Domain::rectangle(250, 250);
  Rng rng(11);
  const auto initial = wsn::deploy_uniform(d, 24, rng);

  start_trace(path);
  run_small_engine(1, initial, d);  // serial: everything on one thread
  stop_trace();

  const auto spans = complete_events(parse_file(path));
  // Spans are emitted as they close, so a nested grid_rebuild is followed
  // by its depth-0 parent: a round, or the finalize pass.
  int rounds_seen = 0, nested_rebuilds = 0, finalize_rebuilds = 0;
  int unparented_rebuilds = 0;
  for (const Span& s : spans) {
    if (s.name == "round") {
      ++rounds_seen;
      EXPECT_EQ(s.depth, 0) << "round spans are top-level in an engine run";
      EXPECT_TRUE(s.has_n);
      EXPECT_EQ(s.n, rounds_seen) << "round arg is the 1-based round number";
      nested_rebuilds += std::exchange(unparented_rebuilds, 0);
    } else if (s.name == "finalize") {
      EXPECT_EQ(s.depth, 0) << "finalize is top-level in an engine run";
      finalize_rebuilds += std::exchange(unparented_rebuilds, 0);
    } else if (s.name == "region_fanout" || s.name == "comm_gather" ||
               s.name == "targets" || s.name == "movement" ||
               s.name == "dirty_scan") {
      EXPECT_EQ(s.depth, 1) << s.name << " nests directly under its pass";
    } else if (s.name == "grid_rebuild") {
      // Depth 1 inside a round's or finalize's snapshot; depth 0 for the
      // snapshots taken outside both (initial state).
      EXPECT_LE(s.depth, 1);
      if (s.depth == 1) ++unparented_rebuilds;
    }
  }
  EXPECT_EQ(unparented_rebuilds, 0);
  EXPECT_GT(rounds_seen, 0);
  EXPECT_LE(finalize_rebuilds, 1) << "finalize snapshots at most once";
  EXPECT_EQ(nested_rebuilds, rounds_seen) << "one in-round rebuild per round";
  std::remove(path.c_str());
}

/// Deterministic structure fingerprint: (name, depth, arg) of every span
/// the *measuring* thread emitted, in emission order, excluding the
/// schedule-dependent pool_chunk spans.
std::vector<std::string> structure_fingerprint(const std::string& path) {
  std::vector<std::string> out;
  for (const Span& s : complete_events(parse_file(path))) {
    if (s.name == "pool_chunk") continue;
    if (s.tid != 0) continue;  // tid 0 registers first: the caller thread
    out.push_back(s.name + "/" + std::to_string(s.depth) + "/" +
                  (s.has_n ? std::to_string(s.n) : std::string("-")));
  }
  return out;
}

TEST(Trace, StructureIdenticalAcrossThreadCounts) {
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(13);
  const auto initial = wsn::deploy_uniform(d, 32, rng);

  std::vector<std::string> reference;
  for (const int threads : {1, 2, 8}) {
    const std::string path =
        temp_path("threads" + std::to_string(threads) + ".json");
    start_trace(path);
    run_small_engine(threads, initial, d);
    stop_trace();
    const auto fp = structure_fingerprint(path);
    EXPECT_FALSE(fp.empty());
    if (threads == 1)
      reference = fp;
    else
      EXPECT_EQ(fp, reference) << "threads=" << threads;
    std::remove(path.c_str());
  }
}

TEST(Trace, SessionsAreExclusiveAndStopIsIdempotent) {
  // No session: stop is a harmless empty report.
  const TraceReport idle = stop_trace();
  EXPECT_EQ(idle.spans, 0u);
  EXPECT_FALSE(active());

  const std::string path = temp_path("exclusive.json");
  start_trace(path);
  EXPECT_TRUE(active());
  EXPECT_THROW(start_trace(path), std::runtime_error);
  EXPECT_THROW(start_timers(), std::runtime_error);
  stop_trace();
  EXPECT_FALSE(active());
  EXPECT_FALSE(enabled());
  std::remove(path.c_str());
}

TEST(Trace, TimersOnlySessionAggregatesStagesWithoutAFile) {
  wsn::Domain d = wsn::Domain::rectangle(200, 200);
  Rng rng(17);
  const auto initial = wsn::deploy_uniform(d, 20, rng);

  start_timers();
  EXPECT_TRUE(enabled());
  run_small_engine(1, initial, d);
  const TraceReport report = stop_trace();
  EXPECT_EQ(report.spans, 0u) << "timers-only: no per-event buffer";
  std::uint64_t rounds = 0, fanouts = 0;
  for (const auto& [name, total] : report.stages) {
    if (name == "round") rounds = total.count;
    if (name == "region_fanout") fanouts = total.count;
  }
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(rounds, fanouts) << "one fan-out per round";
}

// ------------------------------------------------------ counter totals ----

perf::KernelCounters engine_counters(int threads) {
  wsn::Domain d = wsn::Domain::rectangle(300, 300);
  Rng rng(23);
  const auto initial = wsn::deploy_uniform(d, 36, rng);
  const CounterScope scope;
  run_small_engine(threads, initial, d);
  return scope.delta();
}

TEST(CounterScopeTest, TotalsExactForAnyThreadCount) {
  const perf::KernelCounters serial = engine_counters(1);
  ASSERT_GT(serial.dist2_evals, 0u);
  ASSERT_GT(serial.grid_queries, 0u);
  for (const int threads : {2, 8}) {
    const perf::KernelCounters pooled = engine_counters(threads);
    EXPECT_EQ(pooled.dist2_evals, serial.dist2_evals)
        << "threads=" << threads;
    EXPECT_EQ(pooled.clip_calls, serial.clip_calls);
    EXPECT_EQ(pooled.ring_allocs, serial.ring_allocs);
    EXPECT_EQ(pooled.grid_queries, serial.grid_queries);
    EXPECT_EQ(pooled.cells_built, serial.cells_built);
    EXPECT_EQ(pooled.kernel_fallbacks, serial.kernel_fallbacks);
    EXPECT_EQ(pooled.exact_fallbacks, serial.exact_fallbacks);
  }
}

TEST(CounterScopeTest, DeltaAndResetBracketRegions) {
  CounterScope scope;
  perf::counters().dist2_evals += 5;
  perf::counters().grid_queries += 2;
  perf::KernelCounters d = scope.delta();
  EXPECT_EQ(d.dist2_evals, 5u);
  EXPECT_EQ(d.grid_queries, 2u);
  scope.reset();
  EXPECT_EQ(scope.delta().dist2_evals, 0u);
}

// ----------------------------------------------------------- heartbeats ----

TEST(HeartbeatTest, FormatParseRoundTrip) {
  Heartbeat hb;
  hb.kind = "campaign";
  hb.name = "fig6 \"quoted\"";
  hb.shard = "1/4";
  hb.done = 7;
  hb.total = 32;
  hb.ok = 6;
  hb.rate_per_s = 1.25;
  hb.eta_s = 20.0;
  hb.ts_ms = 1754600000123ull;

  const std::string line = format_heartbeat(hb);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_TRUE(is_heartbeat_line(line));

  Heartbeat back;
  ASSERT_TRUE(parse_heartbeat(line, &back));
  EXPECT_EQ(back.kind, "campaign");
  EXPECT_EQ(back.name, hb.name);
  EXPECT_EQ(back.shard, "1/4");
  EXPECT_EQ(back.done, 7);
  EXPECT_EQ(back.total, 32);
  EXPECT_EQ(back.ok, 6);
  EXPECT_EQ(back.live, -1) << "absent field stays at its sentinel";
  EXPECT_DOUBLE_EQ(back.rate_per_s, 1.25);
  EXPECT_DOUBLE_EQ(back.eta_s, 20.0);
  EXPECT_EQ(back.ts_ms, hb.ts_ms);
}

TEST(HeartbeatTest, FleetFieldsAndNullEta) {
  Heartbeat hb;
  hb.kind = "fleet";
  hb.name = "ladder";
  hb.done = 0;
  hb.total = 10;
  hb.live = 4;
  hb.rate_per_s = 0.0;
  hb.eta_s = std::nan("");  // serializes as null
  const std::string line = format_heartbeat(hb);
  EXPECT_NE(line.find("\"live\":4"), std::string::npos);
  EXPECT_NE(line.find("\"eta_s\":null"), std::string::npos);
  Heartbeat back;
  ASSERT_TRUE(parse_heartbeat(line, &back));
  EXPECT_EQ(back.live, 4);
  EXPECT_TRUE(std::isnan(back.eta_s));
}

TEST(HeartbeatTest, ServeFieldsRoundTripAndStayOptional) {
  Heartbeat hb;
  hb.kind = "serve";
  hb.name = "serve_base";
  hb.done = 3;  // phases finished
  hb.live = 1;
  hb.round = 42;
  hb.epoch = 17;
  hb.queue = 2;
  const std::string line = format_heartbeat(hb);
  EXPECT_NE(line.find("\"round\":42"), std::string::npos);
  EXPECT_NE(line.find("\"epoch\":17"), std::string::npos);
  EXPECT_NE(line.find("\"queue\":2"), std::string::npos);
  Heartbeat back;
  ASSERT_TRUE(parse_heartbeat(line, &back));
  EXPECT_EQ(back.round, 42);
  EXPECT_EQ(back.epoch, 17);
  EXPECT_EQ(back.queue, 2);

  // Non-serve heartbeats never grow the fields: absent on the wire, and
  // sentinels after a parse.
  Heartbeat fleet;
  fleet.kind = "fleet";
  fleet.name = "ladder";
  const std::string fleet_line = format_heartbeat(fleet);
  EXPECT_EQ(fleet_line.find("\"round\""), std::string::npos);
  EXPECT_EQ(fleet_line.find("\"queue\""), std::string::npos);
  Heartbeat fleet_back;
  ASSERT_TRUE(parse_heartbeat(fleet_line, &fleet_back));
  EXPECT_EQ(fleet_back.round, -1);
  EXPECT_EQ(fleet_back.epoch, -1);
  EXPECT_EQ(fleet_back.queue, -1);
}

TEST(HeartbeatTest, RejectsNonHeartbeatLines) {
  EXPECT_FALSE(is_heartbeat_line("[1/4] trial 3: ok"));
  EXPECT_FALSE(is_heartbeat_line("{\"schema\":\"laacad.campaign.v1\"}"));
  Heartbeat hb;
  EXPECT_FALSE(parse_heartbeat("plain progress line", &hb));
  // Claims the prefix but carries no parsable kind: consumer falls back to
  // relaying it verbatim.
  EXPECT_FALSE(parse_heartbeat("{\"hb\":}", &hb));
}

TEST(HeartbeatTest, EmitterWritesOneLinePerTick) {
  const std::string path = temp_path("hb.txt");
  std::FILE* sink = std::fopen(path.c_str(), "w");
  ASSERT_NE(sink, nullptr);
  {
    HeartbeatEmitter emitter(sink, "campaign", "demo", "0/2", 4);
    emitter.tick(1, 1);
    emitter.tick(2, 1);
  }
  std::fclose(sink);
  std::ifstream in(path);
  std::string line;
  int lines = 0, parsed = 0;
  while (std::getline(in, line)) {
    ++lines;
    Heartbeat hb;
    if (parse_heartbeat(line + "\n", &hb)) {
      ++parsed;
      EXPECT_EQ(hb.kind, "campaign");
      EXPECT_EQ(hb.total, 4);
      EXPECT_EQ(hb.shard, "0/2");
    }
  }
  EXPECT_EQ(lines, 2);
  EXPECT_EQ(parsed, 2);
  std::remove(path.c_str());
}

// ---------------------------------------- BENCH byte-identity contract ----

constexpr const char* kObsCampaign = R"(
name    obscheck
trials  2
seed    5
domain  square
side    150
deploy  uniform
nodes   12
k       1
epsilon 0.5
max_rounds 120
grid_resolution 8
sweep alpha 0.6 1.0
)";

std::string campaign_json(bool traced, const std::string& trace_path) {
  campaign::CampaignOptions opt;
  opt.workers = 2;  // concurrent trial spans exercise per-thread buffers
  campaign::CampaignScheduler scheduler(
      campaign::parse_campaign_string(kObsCampaign), std::move(opt));
  if (traced) start_trace(trace_path);
  const campaign::CampaignResult result = scheduler.run();
  if (traced) stop_trace();
  std::ostringstream out;
  result.write_json(out);
  return out.str();
}

TEST(ObsContract, TracedCampaignBenchOutputByteIdentical) {
  const std::string trace_path = temp_path("campaign.json");
  const std::string untraced = campaign_json(false, "");
  const std::string traced = campaign_json(true, trace_path);
  EXPECT_EQ(untraced, traced)
      << "tracing must never perturb BENCH artifacts";

  // And the trace itself is a valid timeline with per-trial spans.
  const auto spans = complete_events(parse_file(trace_path));
  int trials = 0;
  std::set<double> trial_args;
  for (const Span& s : spans) {
    if (s.name != "trial") continue;
    ++trials;
    ASSERT_TRUE(s.has_n);
    trial_args.insert(s.n);
  }
  EXPECT_EQ(trials, 4) << "2 points x 2 reps";
  EXPECT_EQ(trial_args, (std::set<double>{0.0, 1.0, 2.0, 3.0}));
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace laacad::obs
