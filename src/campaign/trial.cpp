#include "campaign/trial.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "scenario/runner.hpp"

namespace laacad::campaign {

const std::vector<std::string>& metric_names() {
  static const std::vector<std::string> kNames = {
      "total_rounds", "phases",       "events_fired", "converged",
      "coverage_ok",  "aborted",      "final_nodes",  "max_range",
      "min_range",    "fairness",     "max_load",     "total_load",
      "min_depth",    "mean_depth",   "fraction_k",   "components",
      "battery_min",  "battery_mean", "travel",
  };
  return kNames;
}

std::size_t metric_index(const std::string& name) {
  static const std::unordered_map<std::string, std::size_t> kIndex = [] {
    std::unordered_map<std::string, std::size_t> m;
    for (std::size_t i = 0; i < metric_names().size(); ++i)
      m.emplace(metric_names()[i], i);
    return m;
  }();
  const auto it = kIndex.find(name);
  if (it == kIndex.end())
    throw std::out_of_range("unknown campaign metric '" + name + "'");
  return it->second;
}

scenario::ScenarioSpec resolve_trial_spec(const CampaignSpec& spec,
                                          const TrialPoint& point) {
  // The scenario file may be fixed or swept; swept values win.
  std::string scn = spec.scenario_file;
  for (const auto& [key, value] : point.values)
    if (key == "scenario") scn = value;

  scenario::ScenarioSpec out;
  if (!scn.empty()) {
    out = scenario::load_scenario_file(resolve_scenario_path(spec, scn));
    for (const auto& [key, value] : spec.base_overrides)
      scenario::set_key(out, key, value, 0);
  } else {
    out = spec.base;
  }
  for (const auto& [key, value] : point.values) {
    if (key == "scenario") continue;
    scenario::set_key(out, key, value, 0);
  }
  out.seed = point.seed;
  // Serial by construction: the engine's nested-parallelism guard forbids a
  // pool inside a campaign worker chunk, and trial-level parallelism is
  // what the scheduler provides anyway.
  out.num_threads = 1;
  return out;
}

TrialResult run_trial(const CampaignSpec& spec, const TrialPoint& point,
                      bool keep_history, const TrialProbe& probe,
                      int engine_threads) {
  TrialResult r;
  r.trial = point.trial;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  r.metrics.assign(metric_names().size(), kNaN);
  auto set = [&r](const char* name, double v) {
    r.metrics[metric_index(name)] = v;
  };

  scenario::ScenarioResult result;
  try {
    scenario::ScenarioSpec resolved = resolve_trial_spec(spec, point);
    // Execution details layered on after resolution: neither is a physical
    // key, and neither changes a single output bit (engine determinism /
    // streaming-vs-retained history).
    resolved.num_threads = engine_threads;
    resolved.history = keep_history;
    scenario::ScenarioRunner runner(std::move(resolved));
    result = runner.run();
    if (probe && !result.aborted) probe(point, runner, result);
  } catch (const std::exception& e) {
    r.error = e.what();
    set("aborted", 1.0);
    set("converged", 0.0);
    set("coverage_ok", 0.0);
    return r;
  }

  set("total_rounds", result.total_rounds);
  set("phases", static_cast<double>(result.phases.size()));
  set("events_fired", static_cast<double>(result.events.size()));
  set("converged", result.all_converged ? 1.0 : 0.0);
  set("coverage_ok", result.final_coverage_ok ? 1.0 : 0.0);
  set("aborted", result.aborted ? 1.0 : 0.0);

  double travel = 0.0;
  for (const scenario::PhaseRecord& p : result.phases)
    travel += p.series.travel;
  set("travel", travel);

  if (!result.phases.empty()) {
    const scenario::PhaseRecord& last = result.phases.back();
    set("final_nodes", last.nodes);
    set("max_range", last.final_max_range);
    set("min_range", last.final_min_range);
    set("fairness", last.load.fairness);
    set("max_load", last.load.max_load);
    set("total_load", last.load.total_load);
    set("min_depth", last.coverage_min_depth);
    set("mean_depth", last.coverage_mean_depth);
    set("fraction_k", last.covered_fraction_k);
    set("components", last.components);
    set("battery_min", last.battery_min);
    set("battery_mean", last.battery_mean);
  }

  r.ok = !result.aborted && result.final_coverage_ok;
  return r;
}

}  // namespace laacad::campaign
