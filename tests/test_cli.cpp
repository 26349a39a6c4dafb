// The command-line grammar every tool shares (common/cli): one case per
// rule — switches, typed targets, callbacks, missing values, unknown
// flags, --help, positionals — and the generated usage.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"

namespace laacad::cli {
namespace {

/// One parse of `args` (argv[0] is supplied), with stdout and stderr
/// captured.
struct Outcome {
  std::optional<int> status;
  std::string out;
  std::string err;
};

Outcome run(const Parser& parser, std::vector<std::string> args) {
  std::vector<const char*> argv = {"tool"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out, err;
  Outcome r;
  r.status =
      parser.parse(static_cast<int>(argv.size()), argv.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

TEST(Cli, SwitchSetsItsTarget) {
  bool quiet = false, other = false;
  int calls = 0;
  Parser p("tool");
  p.flag("--quiet", "say nothing", &quiet)
      .flag("--other", "unused", &other)
      .flag("--count", "count calls", [&calls](const std::string& value) {
        EXPECT_EQ(value, "");
        ++calls;
      });
  const Outcome r = run(p, {"--quiet", "--count", "--count"});
  EXPECT_FALSE(r.status);
  EXPECT_TRUE(quiet);
  EXPECT_FALSE(other);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(r.out + r.err, "");
}

TEST(Cli, TypedTargetsParseTheirValues) {
  std::string path;
  int threads = -1;
  std::uint64_t seed = 0;
  double rate = 0.0;
  std::optional<int> requests;
  std::optional<double> unset;
  Parser p("tool");
  p.flag("--path", "PATH", "a path", &path)
      .flag("--threads", "N", "an int >= 0", &threads, 0)
      .flag("--seed", "S", "a uint64", &seed)
      .flag("--rate", "R", "a double", &rate)
      .flag("--requests", "N", "an optional int >= 1", &requests, 1)
      .flag("--unset", "X", "an optional double", &unset);
  const Outcome r = run(p, {"--path", "a b", "--threads", "0", "--seed",
                        "18446744073709551615", "--rate", "2.5",
                        "--requests", "7"});
  EXPECT_FALSE(r.status) << r.err;
  EXPECT_EQ(path, "a b");
  EXPECT_EQ(threads, 0);
  EXPECT_EQ(seed, UINT64_MAX);
  EXPECT_EQ(rate, 2.5);
  ASSERT_TRUE(requests);
  EXPECT_EQ(*requests, 7);
  EXPECT_FALSE(unset);
}

TEST(Cli, BadTypedValuesNameTheFlag) {
  int threads = 0;
  std::uint64_t seed = 0;
  double rate = 0.0;
  std::optional<int> requests;
  Parser p("tool");
  p.flag("--threads", "N", "an int >= 0", &threads, 0)
      .flag("--seed", "S", "a uint64", &seed)
      .flag("--rate", "R", "a double", &rate)
      .flag("--requests", "N", "an optional int >= 1", &requests, 1);
  const struct {
    std::vector<std::string> args;
    std::string message;
  } cases[] = {
      {{"--threads", "-1"},
       "tool: '--threads' expects an integer >= 0, got '-1'\n"},
      {{"--threads", "1x"}, "tool: '--threads' expects an integer, got '1x'\n"},
      {{"--seed", "-1"},
       "tool: '--seed' expects an unsigned integer, got '-1'\n"},
      {{"--rate", "nan"},
       "tool: '--rate' expects a finite number, got 'nan'\n"},
      {{"--requests", "0"},
       "tool: '--requests' expects an integer >= 1, got '0'\n"},
  };
  for (const auto& c : cases) {
    const Outcome r = run(p, c.args);
    EXPECT_EQ(r.status, 2) << c.args[0];
    EXPECT_EQ(r.err, c.message);
    EXPECT_EQ(r.out, "");
  }
  EXPECT_FALSE(requests) << "a rejected value must not be stored";
}

TEST(Cli, CallbackErrorGetsTheFlagPrefix) {
  Parser p("tool");
  p.flag("--k", "N", "via a callback", [](const std::string& value) {
    throw std::runtime_error("line 0: 'k' expects an integer, got '" + value +
                             "'");
  });
  const Outcome r = run(p, {"--k", "abc"});
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.err, "tool: --k: 'k' expects an integer, got 'abc'\n");
}

TEST(Cli, MissingValueIsRefused) {
  std::string path = "unchanged";
  Parser p("tool");
  p.flag("--json", "PATH", "a path", &path);
  const Outcome r = run(p, {"--json"});
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.err, "tool: --json needs a value\n");
  EXPECT_EQ(path, "unchanged");
}

TEST(Cli, UnknownFlagPrintsTheUsageToStderr) {
  bool quiet = false;
  Parser p("tool");
  p.flag("--quiet", "say nothing", &quiet);
  for (const std::string flag : {"--no-such-flag", "-x", "--quiet=1"}) {
    const Outcome r = run(p, {"--quiet", flag});
    EXPECT_EQ(r.status, 2) << flag;
    EXPECT_EQ(r.err, "tool: unknown flag " + flag + "\n" + p.usage());
    EXPECT_EQ(r.out, "");
  }
}

TEST(Cli, HelpPrintsTheUsageToStdoutAndExitsZero) {
  bool quiet = false;
  Parser p("tool");
  p.flag("--quiet", "say nothing", &quiet);
  for (const std::string help : {"--help", "-h"}) {
    const Outcome r = run(p, {help, "--no-such-flag"});
    EXPECT_EQ(r.status, 0) << help;
    EXPECT_EQ(r.out, p.usage());
    EXPECT_EQ(r.err, "");
  }
  EXPECT_EQ(p.usage().rfind("usage: tool [options]\n", 0), 0u) << p.usage();
}

TEST(Cli, PositionalsRequiredOptionalAndExtra) {
  std::string file, root = "src";
  Parser p("tool");
  p.positional("file", /*required=*/true, &file)
      .positional("ROOT", /*required=*/false, &root);
  EXPECT_EQ(p.usage().rfind("usage: tool <file> [ROOT] [options]\n", 0), 0u)
      << p.usage();

  Outcome r = run(p, {"a.scn"});
  EXPECT_FALSE(r.status);
  EXPECT_EQ(file, "a.scn");
  EXPECT_EQ(root, "src");

  r = run(p, {"b.scn", "lib"});
  EXPECT_FALSE(r.status);
  EXPECT_EQ(file, "b.scn");
  EXPECT_EQ(root, "lib");

  r = run(p, {});
  EXPECT_EQ(r.status, 2) << "a missing required positional";
  EXPECT_EQ(r.err, p.usage());

  r = run(p, {"b.scn", "lib", "extra"});
  EXPECT_EQ(r.status, 2) << "an extra positional";
  EXPECT_EQ(r.err, p.usage());
}

TEST(Cli, PositionalCallbackErrorHasNoFlagPrefix) {
  int k = 2;
  Parser p("tool");
  p.positional("k", /*required=*/false, [&k](const std::string& value) {
    if (value != "3")
      throw std::runtime_error("line 0: 'k' expects 3, got '" + value + "'");
    k = 3;
  });
  // A negative number is a positional, not a flag.
  const Outcome r = run(p, {"-1"});
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.err, "tool: 'k' expects 3, got '-1'\n");
  EXPECT_FALSE(run(p, {"3"}).status);
  EXPECT_EQ(k, 3);
}

TEST(Cli, ValuedFlagTakesTheNextArgumentVerbatim) {
  std::string seed, json;
  Parser p("tool");
  p.flag("--seed", "S", "a string", &seed)
      .flag("--json", "PATH", "a path", &json);
  const Outcome r = run(p, {"--seed", "-1", "--json", "--help"});
  EXPECT_FALSE(r.status) << r.err;
  EXPECT_EQ(seed, "-1");
  EXPECT_EQ(json, "--help");
}

TEST(Cli, UsageNamesEveryFlagInTheTable) {
  bool b = false;
  std::string s;
  int i = 0;
  Parser p("tool");
  p.flag("--switch", "a switch", &b)
      .flag("--string", "PATH", "a string", &s)
      .flag("--int", "N", "an int", &i, 0)
      .flag("--a-very-long-flag-name", "uniform|corner|gaussian", "long",
            [](const std::string&) {});
  const std::string usage = p.usage();
  for (const std::string line :
       {"\n  --switch              a switch\n",
        "\n  --string PATH         a string\n",
        "\n  --int N               an int\n",
        "\n  --a-very-long-flag-name uniform|corner|gaussian\n"
        "                        long\n",
        "\n  -h, --help            print this help and exit\n"})
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
}

}  // namespace
}  // namespace laacad::cli
