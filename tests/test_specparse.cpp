// The shared spec reader (common/specparse): line splitting, comments,
// `key value` arity, the line cap, file errors and typed key tables; and
// every shipped .scn and .wl file reaching a fixed point through
// parse -> format -> parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "common/specparse.hpp"
#include "counting_buf.hpp"
#include "scenario/spec.hpp"
#include "serve/workload.hpp"

namespace laacad {
namespace {

using specparse::kMaxLineBytes;

/// Every line the reader hands out, as "number:token token ...".
std::vector<std::string> read_lines(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> out;
  specparse::for_each_line(
      in, [&](const std::vector<std::string>& toks, int line) {
        std::string joined = std::to_string(line) + ":";
        for (const std::string& tok : toks) joined += tok + " ";
        out.push_back(joined);
      });
  return out;
}

std::string error_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(SpecReader, DropsCommentsAndBlankLinesAndCountsEveryLine) {
  EXPECT_EQ(read_lines("# header\n\nname  x   # trailing\n \t\nk\t2\r\n"
                       "sweep a #b c\nlast"),
            (std::vector<std::string>{"3:name x ", "5:k 2 ", "6:sweep a ",
                                      "7:last "}));
  EXPECT_TRUE(read_lines("").empty());
  EXPECT_TRUE(read_lines("\n\n# only comments\n").empty());
}

TEST(SpecReader, KeyValueLinesHoldExactlyTwoTokens) {
  const auto value_of = [](const std::string& text) {
    std::string value;
    std::istringstream in(text);
    specparse::for_each_line(
        in, [&](const std::vector<std::string>& toks, int line) {
          value = specparse::value_of(toks, line);
        });
    return value;
  };
  EXPECT_EQ(value_of("\nside 300 # m\n"), "300");
  EXPECT_EQ(error_of([&] { value_of("\n\nside 300 400\n"); }),
            "line 3: expected 'key value', got 3 tokens");
  EXPECT_EQ(error_of([&] { value_of("side\n"); }),
            "line 1: expected 'key value', got 1 tokens");
}

TEST(SpecReader, StopsReadingAtTheLineCap) {
  EXPECT_EQ(read_lines("k " + std::string(kMaxLineBytes - 2, '1') + "\nx"),
            (std::vector<std::string>{
                "1:k " + std::string(kMaxLineBytes - 2, '1') + " ", "2:x "}));
  EXPECT_EQ(
      error_of([] { read_lines("a\n" + std::string(kMaxLineBytes + 1, 'y')); }),
      "line 2: line longer than kMaxLineBytes (65536 bytes)");

  test::CountingBuf buf(64 * kMaxLineBytes);
  std::istream in(&buf);
  EXPECT_NE(error_of([&] {
              specparse::for_each_line(
                  in, [](const std::vector<std::string>&, int) {});
            }).find("line 1: line longer than"),
            std::string::npos);
  // One buffer chunk past the cap at most.
  EXPECT_LE(buf.taken, kMaxLineBytes + 256);
}

TEST(SpecReader, EveryFormatRefusesAMebibyteLine) {
  const std::string text = "name " + std::string(1 << 20, 'n') + "\n";
  const std::string needle = "line 1: line longer than kMaxLineBytes";
  const std::string scn =
      error_of([&] { scenario::parse_scenario_string(text); });
  const std::string cmp =
      error_of([&] { campaign::parse_campaign_string(text); });
  const std::string wl = error_of([&] { serve::parse_workload_string(text); });
  EXPECT_EQ(scn.rfind(needle, 0), 0u) << scn.substr(0, 80);
  EXPECT_EQ(cmp.rfind(needle, 0), 0u) << cmp.substr(0, 80);
  EXPECT_EQ(wl.rfind(needle, 0), 0u) << wl.substr(0, 80);
}

TEST(SpecReader, FileErrorsNameThePathAndTheStemNamesTheSpec) {
  const std::string dir = ::testing::TempDir() + "specparse_files";
  std::filesystem::create_directories(dir);
  const std::string missing = dir + "/missing.scn";
  EXPECT_EQ(error_of([&] { scenario::load_scenario_file(missing); }),
            "cannot open scenario file: " + missing);

  const std::string bad = dir + "/bad.cmp";
  std::ofstream(bad) << "# sweep\n\nnodes 40x\n";
  EXPECT_EQ(error_of([&] { campaign::load_campaign_file(bad); }),
            bad + ": line 3: 'nodes' expects an integer, got '40x'");

  const std::string nameless = dir + "/my_run.v2.scn";
  std::ofstream(nameless) << "nodes 10\nk 2\n";
  EXPECT_EQ(scenario::load_scenario_file(nameless).name, "my_run.v2");
  std::ofstream(nameless) << "name given\nnodes 10\nk 2\n";
  EXPECT_EQ(scenario::load_scenario_file(nameless).name, "given");
}

struct Typed {
  std::string s = "a";
  int i = 1;
  std::uint64_t u = 2;
  double d = 0.5;
  bool b = false;
};

constexpr specparse::Key<Typed> kTypedKeys[] = {
    {"s", &Typed::s}, {"i", &Typed::i}, {"u", &Typed::u},
    {"d", &Typed::d}, {"b", &Typed::b},
};

TEST(SpecKeys, EachTypeParsesStrictlyAndWritesBackWhatItReads) {
  Typed t;
  EXPECT_TRUE(specparse::set_key(kTypedKeys, t, "s", "word", 1));
  EXPECT_TRUE(specparse::set_key(kTypedKeys, t, "i", "-7", 1));
  EXPECT_TRUE(
      specparse::set_key(kTypedKeys, t, "u", "18446744073709551615", 1));
  EXPECT_TRUE(specparse::set_key(kTypedKeys, t, "d", "0.1", 1));
  EXPECT_TRUE(specparse::set_key(kTypedKeys, t, "b", "yes", 1));
  EXPECT_FALSE(specparse::set_key(kTypedKeys, t, "x", "1", 1));
  EXPECT_EQ(specparse::format_keys(kTypedKeys, t),
            "s word\ni -7\nu 18446744073709551615\nd 0.1\nb true\n");

  EXPECT_EQ(error_of([&] { specparse::set_key(kTypedKeys, t, "i", "7x", 4); }),
            "line 4: 'i' expects an integer, got '7x'");
  EXPECT_EQ(error_of([&] { specparse::set_key(kTypedKeys, t, "u", "-1", 4); }),
            "line 4: 'u' expects an unsigned integer, got '-1'");
  EXPECT_EQ(error_of([&] { specparse::set_key(kTypedKeys, t, "d", "inf", 4); }),
            "line 4: 'd' expects a finite number, got 'inf'");
  EXPECT_EQ(error_of([&] { specparse::set_key(kTypedKeys, t, "b", "2", 4); }),
            "line 4: 'b' expects a boolean, got '2'");

  // format_keys output parses back to the same fields.
  Typed back;
  std::istringstream in(specparse::format_keys(kTypedKeys, t));
  specparse::for_each_line(
      in, [&](const std::vector<std::string>& toks, int line) {
        ASSERT_TRUE(specparse::set_key(kTypedKeys, back, toks[0],
                                       specparse::value_of(toks, line), line));
      });
  EXPECT_EQ(back.s, t.s);
  EXPECT_EQ(back.i, t.i);
  EXPECT_EQ(back.u, t.u);
  EXPECT_EQ(back.d, t.d);
  EXPECT_EQ(back.b, t.b);
}

// ------------------------------------------- shipped specs round-trip ----

std::vector<std::string> shipped_specs() {
  std::vector<std::string> out;
  for (const char* dir : {"/scenarios", "/bench/workloads"})
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(LAACAD_SOURCE_DIR) + dir)) {
      const std::string ext = entry.path().extension().string();
      if (ext == ".scn" || ext == ".wl") out.push_back(entry.path().string());
    }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_same_spec(const scenario::ScenarioSpec& a,
                      const scenario::ScenarioSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.domain, b.domain);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.hole, b.hole);
  ASSERT_EQ(a.obstacles.size(), b.obstacles.size());
  for (std::size_t i = 0; i < a.obstacles.size(); ++i) {
    EXPECT_EQ(a.obstacles[i].lo, b.obstacles[i].lo) << "obstacle " << i;
    EXPECT_EQ(a.obstacles[i].hi, b.obstacles[i].hi) << "obstacle " << i;
  }
  EXPECT_EQ(a.deploy, b.deploy);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.max_rounds, b.max_rounds);
  EXPECT_EQ(a.gamma, b.gamma);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.noise, b.noise);
  EXPECT_EQ(a.flooding, b.flooding);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.battery, b.battery);
  EXPECT_EQ(a.grid_resolution, b.grid_resolution);
  // num_threads and history are execution and output details, which the
  // header leaves out by contract; no shipped scenario sets them.
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const scenario::Event& x = a.events[i];
    const scenario::Event& y = b.events[i];
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(x.trigger, y.trigger);
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.pick, y.pick);
    EXPECT_EQ(x.deploy, y.deploy);
    EXPECT_EQ(x.epochs, y.epochs);
    EXPECT_EQ(x.fraction, y.fraction);
    EXPECT_EQ(x.scale, y.scale);
    EXPECT_EQ(x.lo, y.lo);
    EXPECT_EQ(x.hi, y.hi);
    EXPECT_EQ(x.at, y.at);
    EXPECT_EQ(x.sigma, y.sigma);
  }
}

void expect_same_workload(const serve::WorkloadSpec& a,
                          const serve::WorkloadSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.knn_k, b.knn_k);
  EXPECT_EQ(a.mix_knn, b.mix_knn);
  EXPECT_EQ(a.mix_coverage, b.mix_coverage);
  EXPECT_EQ(a.mix_load, b.mix_load);
  EXPECT_EQ(a.mix_stats, b.mix_stats);
  EXPECT_EQ(a.mix_health, b.mix_health);
  ASSERT_EQ(a.churn.size(), b.churn.size());
  for (std::size_t i = 0; i < a.churn.size(); ++i) {
    EXPECT_EQ(a.churn[i].every, b.churn[i].every) << "churn " << i;
    EXPECT_EQ(a.churn[i].body, b.churn[i].body) << "churn " << i;
  }
}

class ShippedSpec : public ::testing::TestWithParam<std::string> {};

TEST_P(ShippedSpec, ParseFormatParseIsAFixedPoint) {
  const std::string& path = GetParam();
  if (path.size() > 4 && path.compare(path.size() - 4, 4, ".scn") == 0) {
    const scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
    std::string text = scenario::format_spec_header(spec);
    for (const scenario::Event& ev : spec.events)
      text += scenario::format_event(ev) + "\n";
    const scenario::ScenarioSpec back = scenario::parse_scenario_string(text);
    expect_same_spec(spec, back);
    std::string again = scenario::format_spec_header(back);
    for (const scenario::Event& ev : back.events)
      again += scenario::format_event(ev) + "\n";
    EXPECT_EQ(again, text);
  } else {
    const serve::WorkloadSpec spec = serve::load_workload_file(path);
    const std::string text = serve::format_workload(spec);
    const serve::WorkloadSpec back = serve::parse_workload_string(text);
    expect_same_workload(spec, back);
    EXPECT_EQ(serve::format_workload(back), text);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryFile, ShippedSpec, ::testing::ValuesIn(shipped_specs()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string name = std::filesystem::path(param.param).filename().string();
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
}  // namespace laacad
