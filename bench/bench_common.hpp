// Shared scaffolding for the reproduction benches.
//
// Each bench binary registers its experiment(s) as one-shot google-benchmark
// cases (so wall-clock cost is measured and reported uniformly) and collects
// the paper-table rows into a TableSink that main() prints after
// RunSpecifiedBenchmarks. Running a binary with no arguments therefore
// reproduces both the numbers and their cost.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace laacad::benchutil {

/// Swept value at `key` for a campaign trial — by key, not axis position,
/// so reordering sweep lines in a spec cannot silently swap a figure's
/// columns or wreck SVG names.
inline std::string axis_value(const campaign::TrialPoint& pt,
                              const std::string& key) {
  for (const auto& [axis, value] : pt.values)
    if (axis == key) return value;
  return "?";
}

inline int num_threads();  // defined below; referenced by the template

/// The campaign-bench harness shared by the figure benches: size one `Row`
/// per trial of the expanded grid (worker-thread probes index `rows` by
/// `pt.trial`, so the buffer must never be smaller than the matrix), run
/// the campaign across LAACAD_THREADS workers with `probe` observing each
/// finished trial, and return the aggregated result. The probe runs on
/// worker threads; writing only rows[pt.trial] and per-trial files needs
/// no lock. `keep_history` fills the per-round history of every phase the
/// probe sees (CampaignOptions::keep_history).
template <typename Row, typename Probe>
campaign::CampaignResult run_campaign_with_probe(campaign::CampaignSpec spec,
                                                 std::vector<Row>& rows,
                                                 Probe&& probe,
                                                 bool keep_history = false) {
  campaign::CampaignOptions opt;
  opt.workers = num_threads();
  opt.keep_history = keep_history;
  opt.probe = std::forward<Probe>(probe);
  campaign::CampaignScheduler scheduler(std::move(spec), std::move(opt));
  rows.assign(scheduler.trials().size(), Row{});
  return scheduler.run();
}

/// Per-experiment seed derivation: a named base stream advanced by the
/// sweep indices through Rng::derive (splitmix64). Replaces ad-hoc
/// `base + n + k` seed arithmetic, whose collisions (100+60+3 == 100+59+4)
/// silently correlated supposedly independent runs.
template <typename... Streams>
inline std::uint64_t derived_seed(std::uint64_t base, Streams... streams) {
  return Rng::derive(base, static_cast<std::uint64_t>(streams)...);
}

/// Thread count for LaacadConfig::num_threads in the benches, settable
/// without recompiling: LAACAD_THREADS=8 ./bench_fig6_convergence.
/// Defaults to 1 (serial — the paper-faithful reference configuration);
/// 0 means hardware concurrency. Unparsable or negative values fall back
/// to the serial default with a warning rather than skewing the run.
inline int num_threads() {
  const char* env = std::getenv("LAACAD_THREADS");
  if (env == nullptr) return 1;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 0) {
    std::fprintf(stderr,
                 "LAACAD_THREADS='%s' is not a non-negative integer; "
                 "running serial\n",
                 env);
    return 1;
  }
  return static_cast<int>(value);
}

/// Accumulates titled tables produced inside benchmark bodies.
class TableSink {
 public:
  static TableSink& instance() {
    static TableSink sink;
    return sink;
  }

  void add(std::string title, TextTable table) {
    tables_.emplace_back(std::move(title), std::move(table));
  }

  void note(std::string line) { notes_.push_back(std::move(line)); }

  void print_all() const {
    for (const auto& [title, table] : tables_) {
      std::printf("\n=== %s ===\n%s", title.c_str(),
                  table.to_string().c_str());
    }
    for (const auto& n : notes_) std::printf("%s\n", n.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, TextTable>> tables_;
  std::vector<std::string> notes_;
};

/// Register `fn` as a one-iteration benchmark named `name`.
inline void register_experiment(const std::string& name,
                                std::function<void()> fn) {
  benchmark::RegisterBenchmark(name.c_str(),
                               [fn = std::move(fn)](benchmark::State& state) {
                                 for (auto _ : state) fn();
                               })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

/// Standard main body: run benchmarks, then print the collected tables.
inline int run_main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  TableSink::instance().print_all();
  return 0;
}

}  // namespace laacad::benchutil
