// scenario_runner — execute a declarative dynamic-network scenario and emit
// BENCH_*.json metrics.
//
// Usage: scenario_runner <scenario-file> [options]; --help lists them.
//
// The scenario file format is documented in src/scenario/spec.hpp and the
// README; shipped examples live in scenarios/. By default the metrics land
// in BENCH_scenario_<name>.json in the working directory. Exit status is 0
// when the final redeployment restored full k-coverage.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

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
  cli::Parser cli("scenario_runner");
  cli.positional("scenario-file", /*required=*/true, &path)
      .flag("--threads", "T",
            "engine threads (0 = hardware); metrics never change", &threads,
            0)
      .flag("--json", "PATH", "metrics (default BENCH_scenario_<name>.json)",
            &json_path)
      .flag("--trace", "PATH", "Chrome trace-event JSON; metrics never change",
            &trace_path)
      .flag("--dry-run", "parse and validate only; print the timeline",
            &dry_run)
      .flag("--quiet", "print no summary", &quiet);
  if (const auto status = cli.parse(argc, argv)) return *status;

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
    std::fprintf(stderr, "scenario_runner: cannot write %s\n",
                 json_path.c_str());
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
