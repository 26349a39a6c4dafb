// laacad_serve — the serving daemon: a CoverageService fed by a
// line-oriented JSON protocol over stdio or a loopback TCP socket.
//
// Serve mode (default):
//   laacad_serve [--scn PATH] [--stdio | --port P] [--log PATH]
//                [--state PATH] [--threads N] [--publish-every N]
//                [--trace PATH] [--heartbeat] [--quiet]
//
//   Loads the base spec (default: an embedded mirror of
//   scenarios/serve_base.scn; the spec's timeline must be empty), starts
//   the round loop, and answers newline-delimited JSON requests: knn,
//   coverage, load, stats, health, event, drain, shutdown. On stdio,
//   responses go to stdout and everything human goes to stderr, so a
//   scripted session pipes cleanly. --log appends every accepted event to
//   a replayable scenario file; --state dumps the canonical final state
//   document after shutdown.
//
// Replay mode:
//   laacad_serve --replay LOG --state PATH [--threads N]
//
//   Runs LOG (an event log, or any scenario file) through the batch
//   ScenarioRunner and writes the same canonical state document. For any
//   serve session:  serve --log L --state A; replay L --state B; cmp A B
//   — byte-identical, at any thread count.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/specparse.hpp"
#include "obs/trace.hpp"
#include "scenario/spec.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace laacad;

// Mirror of scenarios/serve_base.scn so the daemon runs without a checkout.
constexpr const char* kDefaultSpec = R"(
name      serve_base
domain    square
side      300
nodes     40
k         2
seed      11
epsilon   0.5
max_rounds 200
battery   2.0e6
grid_resolution 5
)";

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scn PATH] [--stdio | --port P] [--log PATH]\n"
      "          [--state PATH] [--threads N] [--publish-every N]\n"
      "          [--trace PATH] [--heartbeat] [--quiet]\n"
      "       %s --replay LOG --state PATH [--threads N]\n"
      "  --scn PATH        base spec (default: embedded serve_base; the\n"
      "                    timeline must be empty — events arrive live)\n"
      "  --stdio           serve requests from stdin to stdout (default)\n"
      "  --port P          serve a loopback TCP listener instead (0 =\n"
      "                    ephemeral; the bound port is printed to stderr)\n"
      "  --log PATH        append accepted events to a replayable log\n"
      "  --state PATH      dump the canonical state document on shutdown\n"
      "  --threads N       engine threads (0 = hardware); bits never change\n"
      "  --publish-every N mid-phase snapshot cadence (0 = phase ends only)\n"
      "  --trace PATH      Chrome trace JSON (request/round/publish spans)\n"
      "  --heartbeat       stream {\"hb\":\"serve\",...} lines to stderr at\n"
      "                    every phase end\n"
      "  --replay LOG      batch-replay an event log and exit\n",
      argv0, argv0);
}

struct Options {
  std::string scn_path;
  std::string replay_path;
  std::string log_path;
  std::string state_path;
  std::string trace_path;
  int port = -1;  // -1 = stdio
  int threads = -1;
  int publish_every = 1;
  bool heartbeat = false;
  bool quiet = false;
};

int serve_main(const Options& opt) {
  scenario::ScenarioSpec spec =
      opt.scn_path.empty() ? scenario::parse_scenario_string(kDefaultSpec)
                           : scenario::load_scenario_file(opt.scn_path);
  if (opt.threads >= 0) spec.num_threads = opt.threads;

  serve::ServeConfig cfg;
  cfg.spec = std::move(spec);
  cfg.log_path = opt.log_path;
  cfg.publish_every = opt.publish_every;
  cfg.heartbeat = opt.heartbeat;

  if (!opt.trace_path.empty()) obs::start_trace(opt.trace_path);
  serve::CoverageService svc(std::move(cfg));
  svc.start();

  int handled = 0;
  if (opt.port >= 0) {
    serve::TcpServer server(svc, opt.port);
    // Machine-greppable either way; with --port 0 this line is the only
    // way a client learns the ephemeral port.
    std::fprintf(stderr, "laacad_serve: listening on 127.0.0.1:%d\n",
                 server.port());
    handled = server.serve();
  } else {
    handled = serve::serve_stdio(svc, std::cin, std::cout);
  }
  // Both transports stop() the service on the way out (drain + final
  // phase), so the state below is final and replayable.

  if (!opt.state_path.empty()) {
    std::ofstream out(opt.state_path, std::ios::binary);
    if (!out)
      throw std::runtime_error("cannot open state file " + opt.state_path);
    svc.write_state(out);
  }
  if (!opt.trace_path.empty()) {
    const obs::TraceReport report = obs::stop_trace();
    if (!opt.quiet)
      std::fprintf(stderr, "trace: %s (%zu spans across %zu threads)\n",
                   opt.trace_path.c_str(), report.spans, report.threads);
  }

  const serve::CoverageService::Stats s = svc.stats();
  if (!opt.quiet)
    std::fprintf(stderr,
                 "laacad_serve: %d requests, %llu events applied "
                 "(%llu rejected), %d rounds over %d phases%s\n",
                 handled,
                 static_cast<unsigned long long>(s.events_applied),
                 static_cast<unsigned long long>(s.events_rejected),
                 s.global_round, s.phases, s.aborted ? ", ABORTED" : "");
  return s.aborted ? 1 : 0;
}

int replay_main(const Options& opt) {
  if (opt.state_path.empty())
    throw std::runtime_error("--replay needs --state PATH");
  std::ofstream out(opt.state_path, std::ios::binary);
  if (!out)
    throw std::runtime_error("cannot open state file " + opt.state_path);
  serve::replay_log_state(opt.replay_path, out, opt.threads);
  if (!opt.quiet)
    std::fprintf(stderr, "laacad_serve: replayed %s -> %s\n",
                 opt.replay_path.c_str(), opt.state_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "laacad_serve: %s needs a value\n",
                       arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--scn") opt.scn_path = next();
      else if (arg == "--replay") opt.replay_path = next();
      else if (arg == "--log") opt.log_path = next();
      else if (arg == "--state") opt.state_path = next();
      else if (arg == "--trace") opt.trace_path = next();
      else if (arg == "--stdio") opt.port = -1;
      else if (arg == "--port")
        opt.port = specparse::parse_int(next(), 0, arg, 0);
      else if (arg == "--threads")
        opt.threads = specparse::parse_int(next(), 0, arg, 0);
      else if (arg == "--publish-every")
        opt.publish_every = specparse::parse_int(next(), 0, arg, 0);
      else if (arg == "--heartbeat") opt.heartbeat = true;
      else if (arg == "--quiet") opt.quiet = true;
      else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::fprintf(stderr, "laacad_serve: unknown argument %s\n",
                     arg.c_str());
        usage(argv[0]);
        return 2;
      }
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "laacad_serve: %s\n",
                 specparse::without_line(e.what()).c_str());
    return 2;
  }

  try {
    return opt.replay_path.empty() ? serve_main(opt) : replay_main(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "laacad_serve: %s\n", e.what());
    return 2;
  }
}
