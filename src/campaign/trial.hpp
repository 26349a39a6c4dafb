// One campaign trial: a fully resolved scenario run plus its scalar metric
// row. The metric schema is a fixed, ordered name list shared by the
// manifest journal, the trial CSV, and the aggregate JSON, so every
// serialization of a trial is column-compatible with every other.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace laacad::scenario {
class ScenarioRunner;
struct ScenarioResult;
}  // namespace laacad::scenario

namespace laacad::campaign {

/// Observation hook run_trial invokes on a successful trial with the
/// still-live runner and the full scenario record (see
/// CampaignOptions::probe for the threading contract).
using TrialProbe = std::function<void(
    const TrialPoint&, const scenario::ScenarioRunner&,
    const scenario::ScenarioResult&)>;

/// Ordered scalar metric names (bools encoded 0/1, counts as doubles).
/// Index into TrialResult::metrics.
const std::vector<std::string>& metric_names();

/// Position of `name` in metric_names(); throws std::out_of_range for an
/// unknown name (a typo in an aggregation request is a bug, not a zero).
std::size_t metric_index(const std::string& name);

struct TrialResult {
  int trial = -1;   ///< TrialPoint::trial this row belongs to
  bool ok = false;  ///< completed, not aborted, final k-coverage verified
  /// Scalar row parallel to metric_names(). A trial that threw (bad spec
  /// combination, scenario file error) records NaN everywhere except
  /// `aborted` = 1 — JsonWriter maps NaN to null, so the row degrades
  /// cleanly instead of poisoning aggregates with fake zeros.
  std::vector<double> metrics;
  std::string error;  ///< what() when the trial threw, empty otherwise
};

/// Build the fully resolved scenario spec for one trial: load the scenario
/// file if any (resolved against spec.dir), apply the campaign's fixed
/// overrides, then the point's swept values, then the derived seed.
/// Trials default to a serial engine (num_threads = 1) — campaign
/// parallelism is normally across trials, which is what keeps results
/// independent of worker count. A lone pending trial runs its engine on
/// CampaignOptions::workers threads instead (see there); that changes no
/// output bits either way.
scenario::ScenarioSpec resolve_trial_spec(const CampaignSpec& spec,
                                          const TrialPoint& point);

/// Execute one trial. Never throws: a failing trial (invalid resolved spec,
/// unreadable scenario file, runtime abort) returns the NaN row described
/// above with `error` set. A non-null `probe` is invoked on success, while
/// the runner is still alive; a probe that throws fails the trial.
/// `keep_history` fills every PhaseRecord::history the probe sees.
/// `engine_threads` is the engine thread count for this trial (1 = serial,
/// 0 = hardware); anything but 1 must not run inside a pool chunk.
TrialResult run_trial(const CampaignSpec& spec, const TrialPoint& point,
                      bool keep_history = false,
                      const TrialProbe& probe = nullptr,
                      int engine_threads = 1);

}  // namespace laacad::campaign
