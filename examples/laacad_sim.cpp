// laacad_sim — command-line front end for the whole library: pick a domain
// shape, coverage degree, backend, and deployment, run LAACAD, verify, and
// optionally dump SVG/CSV artifacts. Intended as the "downstream user"
// entry point.
//
// Run `laacad_sim --help` for the flags.
//
// Every flag that names a scenario setting (--k, --nodes, --rounds, ...,
// --seed, --threads) is parsed by the .scn grammar (scenario::set_key /
// specparse), and the world is built by scenario::build_world (which runs
// scenario::validate), so a malformed or out-of-range value exits 2 with a
// message naming the flag, and every backend and deployment a .scn file
// accepts runs here too.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace laacad;
  // laacad_sim's own defaults; every other setting is ScenarioSpec's.
  ScenarioSpec spec;
  spec.nodes = 60;
  spec.side = 500.0;
  Options opt;
  // A flag that sets a scenario key is parsed exactly as a .scn file
  // parses that key.
  const auto key = [&spec](const char* name) {
    return [&spec, name](const std::string& value) {
      scenario::set_key(spec, name, value, 0);
    };
  };
  cli::Parser cli("laacad_sim");
  cli.flag("--k", "N", "coverage degree", key("k"))
      .flag("--nodes", "N", "node count", key("nodes"))
      .flag("--seed", "S", "RNG seed",
            [&spec](const std::string& value) {
              spec.seed = specparse::parse_uint64(value, 0, "seed");
            })
      .flag("--alpha", "A", "movement step, in (0, 1]", key("alpha"))
      .flag("--epsilon", "E", "movement threshold (m)", key("epsilon"))
      .flag("--rounds", "R", "round cap per phase", key("max_rounds"))
      .flag("--gamma", "G", "transmission range (m; 0 = auto)", key("gamma"))
      .flag("--domain", "square|lshape|cross", "domain shape", key("domain"))
      .flag("--side", "M", "domain side length (m)", key("side"))
      .flag("--hole", "punch the canned obstacle", &spec.hole)
      .flag("--deploy", "uniform|corner|gaussian|stacked",
            "initial deployment", key("deploy"))
      .flag("--backend", "global|localized|auto", "region solver",
            key("backend"))
      .flag("--max-hops", "H", "localized gather hop cap", key("max_hops"))
      .flag("--noise", "SIGMA", "position noise sigma (m)", key("noise"))
      .flag("--threads", "T", "engine threads (0 = hardware)",
            [&spec](const std::string& value) {
              spec.num_threads = specparse::parse_int(value, 0, "threads");
            })
      .flag("--svg", "PREFIX", "write PREFIX_{initial,final,partition}.svg",
            &opt.svg_prefix)
      .flag("--csv", "FILE", "write per-round metrics", &opt.csv_path)
      .flag("--trace", "FILE", "write a Chrome trace-event JSON",
            &opt.trace_path)
      .flag("--heartbeat", "stream one JSON heartbeat per round to stderr",
            &opt.heartbeat)
      .flag("--quiet", "print no summary table", &opt.quiet);
  if (const auto status = cli.parse(argc, argv)) return *status;
  // Domain, deployment, gamma and backend come from the scenario engine's
  // setup path, so every spec the grammar accepts runs here too.
  scenario::World world;
  try {
    world = scenario::build_world(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "laacad_sim: %s\n", e.what());
    return 2;
  }
  wsn::Network& net = *world.net;
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
  std::vector<core::RoundMetrics> history;  // the --csv rows
  const core::RunResult run =
      world.engine->run({}, [&](const core::RoundMetrics& m) {
        if (heartbeat) heartbeat->tick(m.round, m.moved == 0 ? 1 : 0);
        if (!opt.csv_path.empty()) history.push_back(m);
      });
  const wsn::LoadReport& load = run.load;
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
    table.add_row({"converged", run.converged ? "yes" : "no"});
    table.add_row({"rounds", std::to_string(run.rounds)});
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
