// CampaignScheduler — shards a campaign's trial matrix across a pool of
// workers and aggregates the streamed results.
//
// Scheduling is dynamic (workers pull the next pending trial from a shared
// atomic queue, so a long trial never blocks the rest of the matrix), but
// results are deterministic anyway: every trial's RNG seed derives from its
// identity (grid point, repetition) rather than from which worker ran it,
// engines are thread-count deterministic, and rows land in a results array
// indexed by trial. The emitted JSON and CSV are therefore byte-identical
// for any worker count — and, combined with the ResultStore manifest, for any
// interrupt/resume split.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign/trial.hpp"
#include "dist/partition.hpp"

namespace laacad::campaign {

struct CampaignOptions {
  /// Threads for this process's slice of the matrix; 0 = hardware
  /// concurrency. Several pending trials run on a pool of this many
  /// workers, each trial with a serial engine. Exactly one pending trial
  /// (a scale-ladder rung) has nothing to fan out across, so it runs on
  /// the calling thread with this many engine threads instead — a trial
  /// engine's pool cannot nest inside a worker chunk. Changes no output
  /// bits either way: the engine is thread-count deterministic.
  int workers = 1;
  bool resume = false;  ///< replay the manifest instead of starting over
  /// Manifest path; empty disables journaling (in-memory embedders).
  std::string manifest_path;
  /// Fill each phase's per-round history for `probe` (never serialized).
  bool keep_history = false;
  /// Run only the trials this shard owns (stride partition, see
  /// dist/partition.hpp) and stamp the shard coordinates into the manifest
  /// header. {0, 1} — the default — runs the whole matrix. A sharded run
  /// produces a partial CampaignResult whose aggregates are meaningless;
  /// merge the shard manifests (dist::merge_manifests) for the real ones.
  dist::ShardSpec shard;
  /// Progress hook, called under the scheduler lock as each trial lands:
  /// (point, result, completed count, total trials this shard owns).
  std::function<void(const TrialPoint&, const TrialResult&, int, int)>
      on_trial;
  /// Observation hook for in-memory embedders (figure benches): called on
  /// each *successful* trial, from the worker thread that ran it, with the
  /// still-live runner (final network + domain state) and the full scenario
  /// record. Must be thread-safe; must not retain the references.
  TrialProbe probe;
};

/// Aggregate of one metric over a group's finite samples. NaN (JSON null)
/// throughout when no finite sample exists — aggregates never invent zeros.
struct MetricAggregate {
  int n = 0;  ///< finite samples aggregated
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double ci95 = 0.0;  ///< normal-approx 95% CI half-width on the mean
};

/// All repetitions of one grid point, aggregated per metric.
struct GroupAggregate {
  int point = 0;
  /// Axis values identifying the group, in axis order.
  std::vector<std::pair<std::string, std::string>> values;
  int trials = 0;  ///< repetitions in the group
  int ok = 0;      ///< repetitions with TrialResult::ok
  std::vector<MetricAggregate> metrics;  ///< parallel to metric_names()
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<TrialPoint> points;   ///< full matrix, by trial index
  std::vector<TrialResult> trials;  ///< by trial index
  std::vector<GroupAggregate> groups;  ///< by grid-point index
  int executed = 0;   ///< trials run now (rest recovered from the manifest)
  int recovered = 0;  ///< trials replayed from the manifest
  /// Which slice of the matrix this result actually ran; trials the shard
  /// does not own are default rows (trial == -1). {0, 1} = the full matrix.
  dist::ShardSpec shard;

  /// Every owned trial completed with verified final k-coverage. A sharded
  /// result judges only its own slice.
  bool all_ok() const;

  /// BENCH_campaign_<name>.json: config echo, axes, per-trial rows, grouped
  /// aggregates, summary. Execution details (worker count, resume split,
  /// manifest path) are never serialized — output is byte-identical across
  /// worker counts and across interrupt/resume. Throws std::logic_error on
  /// a sharded result: a partial matrix must be merged first
  /// (dist::merge_manifests), never half-serialized.
  void write_json(std::ostream& out) const;

  /// Trial log: one CSV row per trial (identity, axis values, ok, metrics),
  /// in trial order. Same determinism and sharding contract as the JSON.
  void write_csv(std::ostream& out) const;
};

class CampaignScheduler {
 public:
  /// Validates the spec and expands the trial matrix; throws
  /// std::runtime_error on a bad spec or a mismatched resume manifest.
  explicit CampaignScheduler(CampaignSpec spec, CampaignOptions opt = {});

  /// The expanded matrix (for --dry-run listings and tests).
  const std::vector<TrialPoint>& trials() const { return points_; }

  /// Run every pending trial and aggregate. Call once.
  CampaignResult run();

 private:
  CampaignSpec spec_;
  CampaignOptions opt_;
  std::vector<TrialPoint> points_;
};

}  // namespace laacad::campaign
