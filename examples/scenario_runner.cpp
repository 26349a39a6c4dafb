// scenario_runner — execute a declarative dynamic-network scenario and emit
// BENCH_*.json metrics.
//
// Usage:
//   scenario_runner <scenario-file> [--threads T] [--json PATH]
//                   [--trace PATH] [--quiet]
//
// The scenario file format is documented in src/scenario/spec.hpp and the
// README; shipped examples live in scenarios/. By default the metrics land
// in BENCH_scenario_<name>.json in the working directory. Exit status is 0
// when the final redeployment restored full k-coverage.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/specparse.hpp"
#include "common/table.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s <scenario-file> [--threads T] [--json PATH] [--trace PATH] "
      "[--dry-run] [--quiet]\n"
      "  --threads T  override the spec's thread count (0 = hardware);\n"
      "               metrics are byte-identical for every value\n"
      "  --json PATH  metrics output (default BENCH_scenario_<name>.json)\n"
      "  --trace PATH write a Chrome trace-event JSON timeline (phase,\n"
      "               event, and engine round-stage spans); the BENCH json\n"
      "               is byte-identical with or without it\n"
      "  --dry-run    parse + validate only; print the event timeline\n",
      argv0);
}

/// --dry-run: the spec parsed and validated; show what would execute.
void print_timeline(const laacad::scenario::ScenarioSpec& spec) {
  std::printf(
      "scenario '%s': domain=%s side=%g deploy=%s nodes=%d k=%d seed=%llu "
      "backend=%s max_rounds=%d/phase\n",
      spec.name.c_str(), spec.domain.c_str(), spec.side, spec.deploy.c_str(),
      spec.nodes, spec.k, static_cast<unsigned long long>(spec.seed),
      spec.backend.c_str(), spec.max_rounds);
  if (spec.events.empty()) {
    std::printf("timeline: (no events — a single static deployment phase)\n");
    return;
  }
  std::printf("timeline: %d events, %d redeployment phases\n",
              static_cast<int>(spec.events.size()),
              static_cast<int>(spec.events.size()) + 1);
  // Each event prints as the spec line that re-parses to it.
  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const auto& ev = spec.events[i];
    std::printf("%s  # event %zu, line %d\n",
                laacad::scenario::format_event(ev).c_str(), i, ev.line);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace laacad;

  std::string path, json_path, trace_path;
  int threads = -1;  // -1 = keep the spec's value
  bool quiet = false, dry_run = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--help" || flag == "-h") { usage(argv[0]); return 0; }
    else if (flag == "--quiet") quiet = true;
    else if (flag == "--dry-run") dry_run = true;
    else if (flag == "--threads") {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--threads expects a value\n");
        return 2;
      }
      try {
        threads = specparse::parse_int(argv[++a], 0, flag, 0);
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "scenario_runner: %s\n",
                     specparse::without_line(e.what()).c_str());
        return 2;
      }
    }
    else if (flag == "--json") {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--json expects a value\n");
        return 2;
      }
      json_path = argv[++a];
    }
    else if (flag == "--trace") {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--trace expects a value\n");
        return 2;
      }
      trace_path = argv[++a];
    }
    else if (!flag.empty() && flag[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      usage(argv[0]);
      return 2;
    } else if (path.empty()) path = flag;
    else { usage(argv[0]); return 2; }
  }
  if (path.empty()) { usage(argv[0]); return 2; }

  scenario::ScenarioResult result;
  try {
    scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
    if (threads >= 0) spec.num_threads = threads;
    if (dry_run) {
      // load_scenario_file already validated; just show the plan.
      print_timeline(spec);
      return 0;
    }
    if (!trace_path.empty()) obs::start_trace(trace_path);
    scenario::ScenarioRunner runner(std::move(spec));
    result = runner.run();
    if (!trace_path.empty()) {
      const obs::TraceReport report = obs::stop_trace();
      if (!quiet)
        std::printf("trace: %s (%zu spans across %zu threads)\n",
                    trace_path.c_str(), report.spans, report.threads);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 2;
  }

  if (json_path.empty())
    json_path = "BENCH_scenario_" + result.spec.name + ".json";
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }
  result.write_json(out);

  if (!quiet) {
    TextTable table({"phase", "cause", "rounds", "nodes", "converged",
                     "R* (m)", "fairness", "min depth", "k-frac"});
    for (const auto& p : result.phases) {
      table.add_row({std::to_string(p.phase), p.cause,
                     std::to_string(p.rounds), std::to_string(p.nodes),
                     p.converged ? "yes" : "no",
                     TextTable::num(p.final_max_range, 2),
                     TextTable::num(p.load.fairness, 3),
                     std::to_string(p.coverage_min_depth),
                     TextTable::num(p.covered_fraction_k, 3)});
    }
    table.print(std::cout);
    for (const auto& e : result.events) {
      std::printf("event %d @ round %d: %s — %s (%d -> %d nodes)\n", e.index,
                  e.global_round, e.type.c_str(), e.detail.c_str(),
                  e.nodes_before, e.nodes_after);
    }
    if (result.aborted)
      std::printf("ABORTED: %s\n", result.abort_reason.c_str());
    std::printf("scenario '%s': %d phases, %d total rounds, final %d-coverage %s\n",
                result.spec.name.c_str(),
                static_cast<int>(result.phases.size()), result.total_rounds,
                result.spec.k, result.final_coverage_ok ? "OK" : "LOST");
    std::printf("metrics: %s\n", json_path.c_str());
  }
  return result.final_coverage_ok ? 0 : 1;
}
