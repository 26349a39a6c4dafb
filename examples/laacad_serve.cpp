// laacad_serve — the serving daemon: a CoverageService fed by a
// line-oriented JSON protocol over stdio or a loopback TCP socket.
//
// Serve mode (the default; `laacad_serve --help` lists the flags):
//
//   Loads the base spec (default: scenarios/serve_base.scn, embedded at
//   build time; the spec's timeline must be empty), starts
//   the round loop, and answers newline-delimited JSON requests: knn,
//   coverage, load, stats, health, event, drain, shutdown. On stdio (the
//   default; --port serves TCP instead), responses go to stdout and
//   everything human goes to stderr, so a scripted session pipes cleanly.
//   --log appends every accepted event to a replayable scenario file;
//   --state dumps the canonical final state document after shutdown.
//
// Replay mode (--replay LOG --state PATH [--threads N]):
//
//   Runs LOG (an event log, or any scenario file) through the batch
//   ScenarioRunner and writes the same canonical state document. For any
//   serve session:  serve --log L --state A; replay L --state B; cmp A B
//   — byte-identical, at any thread count.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "embedded_specs.hpp"
#include "obs/trace.hpp"
#include "scenario/spec.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace laacad;

struct Options {
  std::string scn_path;
  std::string replay_path;
  std::string log_path;
  std::string state_path;
  std::string trace_path;
  int port = -1;  // -1 = stdio
  int threads = -1;
  bool heartbeat = false;
  bool quiet = false;
};

int serve_main(const Options& opt) {
  scenario::ScenarioSpec spec =
      opt.scn_path.empty() ? scenario::parse_scenario_string(kServeBaseSpec)
                           : scenario::load_scenario_file(opt.scn_path);
  if (opt.threads >= 0) spec.num_threads = opt.threads;

  serve::ServeConfig cfg;
  cfg.spec = std::move(spec);
  cfg.log_path = opt.log_path;
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
  cli::Parser cli("laacad_serve");
  cli.flag("--scn", "PATH", "base spec (default: embedded serve_base)",
           &opt.scn_path)
      .flag("--port", "P", "serve loopback TCP, not stdio (0 = ephemeral)",
            &opt.port, 0)
      .flag("--log", "PATH", "append accepted events to a replayable log",
            &opt.log_path)
      .flag("--state", "PATH", "dump the canonical state document at exit",
            &opt.state_path)
      .flag("--threads", "N",
            "engine threads (0 = hardware); bits never change", &opt.threads,
            0)
      .flag("--trace", "PATH", "Chrome trace JSON (request/round/publish)",
            &opt.trace_path)
      .flag("--heartbeat",
            "heartbeat to stderr each moving round and phase end",
            &opt.heartbeat)
      .flag("--quiet", "print no summary on stderr", &opt.quiet)
      .flag("--replay", "LOG", "batch-replay LOG into --state PATH and exit",
            &opt.replay_path);
  if (const auto status = cli.parse(argc, argv)) return *status;

  try {
    return opt.replay_path.empty() ? serve_main(opt) : replay_main(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "laacad_serve: %s\n", e.what());
    return 2;
  }
}
