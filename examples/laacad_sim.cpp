// laacad_sim — command-line front end for the whole library: pick a domain
// shape, coverage degree, backend, and deployment, run LAACAD, verify, and
// optionally dump SVG/CSV artifacts. Intended as the "downstream user"
// entry point.
//
// Usage:
//   laacad_sim [--k N] [--nodes N] [--seed S] [--alpha A] [--epsilon E]
//              [--rounds R] [--gamma G] [--domain square|lshape|cross]
//              [--side METRES] [--hole]
//              [--deploy uniform|corner|gaussian|stacked]
//              [--backend global|localized|auto] [--max-hops H]
//              [--noise SIGMA] [--threads T] [--svg PREFIX] [--csv FILE]
//              [--trace FILE] [--heartbeat] [--quiet]
//
// Every flag that names a scenario setting (--k, --nodes, --rounds, ...,
// --seed, --threads) is parsed by the .scn grammar (scenario::set_key /
// specparse), and the world is built by scenario::build_world (which runs
// scenario::validate), so a malformed or out-of-range value exits 2 with a
// message naming the flag, and every backend and deployment a .scn file
// accepts runs here too.
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/specparse.hpp"
#include "common/table.hpp"
#include "coverage/critical.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/engine.hpp"
#include "obs/heartbeat.hpp"
#include "obs/trace.hpp"
#include "scenario/apply.hpp"
#include "viz/render.hpp"
#include "wsn/connectivity.hpp"
#include "wsn/energy.hpp"

namespace {

using laacad::scenario::ScenarioSpec;

/// The CLI-only flags; everything else lands in the ScenarioSpec.
struct Options {
  std::string svg_prefix;
  std::string csv_path;
  std::string trace_path;
  bool heartbeat = false;
  bool quiet = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--k N] [--nodes N] [--seed S] [--alpha A] [--epsilon E]\n"
      "          [--rounds R] [--gamma G] [--domain square|lshape|cross]\n"
      "          [--side M] [--hole]\n"
      "          [--deploy uniform|corner|gaussian|stacked]\n"
      "          [--backend global|localized|auto] [--max-hops H] [--noise S]\n"
      "          [--threads T] [--svg PREFIX] [--csv FILE] [--trace FILE]\n"
      "          [--heartbeat] [--quiet]\n",
      argv0);
}

/// Applies one valued flag. Throws std::runtime_error on an unknown flag or
/// a malformed value.
void set_flag(ScenarioSpec& spec, Options& opt, const std::string& flag,
              const std::string& value) {
  using namespace laacad;
  // Flags that set a scenario key, parsed exactly as a .scn file parses it.
  static const std::map<std::string, std::string> kKeyFlags = {
      {"--k", "k"}, {"--nodes", "nodes"}, {"--alpha", "alpha"},
      {"--epsilon", "epsilon"}, {"--rounds", "max_rounds"},
      {"--gamma", "gamma"}, {"--domain", "domain"}, {"--side", "side"},
      {"--deploy", "deploy"}, {"--backend", "backend"},
      {"--max-hops", "max_hops"}, {"--noise", "noise"}};
  if (flag == "--seed") {
    spec.seed = specparse::parse_uint64(value, 0, "seed");
  } else if (flag == "--threads") {
    spec.num_threads = specparse::parse_int(value, 0, "threads");
  } else if (flag == "--svg") {
    opt.svg_prefix = value;
  } else if (flag == "--csv") {
    opt.csv_path = value;
  } else if (flag == "--trace") {
    opt.trace_path = value;
  } else if (const auto it = kKeyFlags.find(flag); it != kKeyFlags.end()) {
    scenario::set_key(spec, it->second, value, 0);
  } else {
    throw std::runtime_error("unknown flag");
  }
}

/// Returns false for --help. Throws std::runtime_error naming the flag on
/// an unknown flag or a missing or malformed value.
bool parse(int argc, char** argv, ScenarioSpec& spec, Options& opt) {
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--help" || flag == "-h") return false;
    if (flag == "--quiet") {
      opt.quiet = true;
    } else if (flag == "--heartbeat") {
      opt.heartbeat = true;
    } else if (flag == "--hole") {
      spec.hole = true;
    } else {
      try {
        if (a + 1 >= argc) throw std::runtime_error("needs a value");
        set_flag(spec, opt, flag, argv[++a]);
      } catch (const std::runtime_error& e) {
        throw std::runtime_error(flag + ": " +
                                 laacad::specparse::without_line(e.what()));
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace laacad;
  // laacad_sim's own defaults; every other setting is ScenarioSpec's.
  ScenarioSpec spec;
  spec.nodes = 60;
  spec.side = 500.0;
  Options opt;
  // Domain, deployment, gamma and backend come from the scenario engine's
  // setup path, so every spec the grammar accepts runs here too.
  scenario::World world;
  try {
    if (!parse(argc, argv, spec, opt)) {
      usage(argv[0]);
      return 2;
    }
    world = scenario::build_world(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "laacad_sim: %s\n", e.what());
    return 2;
  }
  wsn::Network& net = *world.net;
  core::Engine& engine = *world.engine;
  if (!opt.svg_prefix.empty())
    viz::render_deployment(opt.svg_prefix + "_initial.svg", net);

  // -- Run -----------------------------------------------------------------
  // --heartbeat streams one {"hb":"engine",...} line per round to stderr:
  // done = rounds executed, total = the round cap, ok = 1 once movement
  // stopped. Same schema campaign_fleet already consumes.
  std::unique_ptr<obs::HeartbeatEmitter> heartbeat;
  if (opt.heartbeat)
    heartbeat = std::make_unique<obs::HeartbeatEmitter>(
        stderr, "engine", "laacad_sim", /*shard=*/"", spec.max_rounds);
  if (!opt.trace_path.empty()) obs::start_trace(opt.trace_path);
  std::vector<core::RoundMetrics> history;  // the CSV dump walks every round
  bool converged = false;
  while (!converged && engine.rounds_executed() < spec.max_rounds) {
    const core::RoundMetrics& m = history.emplace_back(engine.step());
    converged = (m.moved == 0);
    if (heartbeat) heartbeat->tick(m.round, converged ? 1 : 0);
  }
  engine.finalize();
  const wsn::LoadReport load = wsn::load_report(net);
  if (!opt.trace_path.empty()) {
    const obs::TraceReport report = obs::stop_trace();
    if (!opt.quiet)
      std::printf("trace: %s (%zu spans across %zu threads)\n",
                  opt.trace_path.c_str(), report.spans, report.threads);
  }

  // -- Report --------------------------------------------------------------
  const auto exact =
      cov::critical_point_coverage(world.domain(), cov::sensing_disks(net));
  const auto conn = wsn::analyze_connectivity(net, 1.25 * load.max_range);
  if (!opt.quiet) {
    TextTable table({"metric", "value"});
    table.add_row({"nodes", std::to_string(net.size())});
    table.add_row({"k", std::to_string(spec.k)});
    table.add_row({"backend", spec.backend});
    table.add_row({"threads", std::to_string(spec.num_threads)});
    table.add_row({"converged", converged ? "yes" : "no"});
    table.add_row({"rounds", std::to_string(engine.rounds_executed())});
    table.add_row({"R* max range (m)", TextTable::num(load.max_range, 3)});
    table.add_row({"min range (m)", TextTable::num(load.min_range, 3)});
    table.add_row({"load fairness (Jain)", TextTable::num(load.fairness, 4)});
    table.add_row({"verified coverage depth", std::to_string(exact.min_depth)});
    table.add_row({"connected @ 1.25 R*", conn.connected() ? "yes" : "no"});
    table.print(std::cout);
  }

  if (!opt.csv_path.empty()) {
    CsvWriter csv(opt.csv_path,
                  {"round", "max_circumradius", "min_circumradius",
                   "max_move", "moved"});
    for (const auto& m : history) {
      csv.add_row({std::to_string(m.round),
                   TextTable::num(m.max_circumradius, 4),
                   TextTable::num(m.min_circumradius, 4),
                   TextTable::num(m.max_move, 4), std::to_string(m.moved)});
    }
  }
  if (!opt.svg_prefix.empty()) {
    viz::render_deployment(opt.svg_prefix + "_final.svg", net);
    viz::render_order_k_partition(opt.svg_prefix + "_partition.svg", net,
                                  spec.k);
  }
  return exact.min_depth >= spec.k ? 0 : 1;
}
