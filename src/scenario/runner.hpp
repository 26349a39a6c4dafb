// ScenarioRunner — executes a ScenarioSpec as a sequence of *redeployment
// phases* separated by disruption events.
//
// Phase 0 runs LAACAD from the initial deployment. Each event then mutates
// the live network (failures, drain, arrivals, a new domain) and the engine
// is re-armed (Engine::begin_phase) so the survivors autonomously
// re-balance k-coverage — the dynamic behaviour the paper claims but a
// single static run cannot exhibit. Each phase is one Engine::run, cut
// short when a `round=N` event falls due. After every phase the runner
// verifies coverage (scenario::check_coverage), records load balance and
// connectivity, and the whole record serializes to a BENCH_*.json metrics
// file through common/json_writer.
//
// Determinism: event randomness comes from one seeded Rng consumed in spec
// order, the engine is bit-identical for every num_threads, and JSON
// numbers print exactly — so the emitted metrics are byte-identical across
// thread counts (num_threads is never serialized).
#pragma once

#include <string>
#include <vector>

#include "laacad/engine.hpp"
#include "scenario/apply.hpp"
#include "scenario/spec.hpp"
#include "wsn/network.hpp"

namespace laacad::scenario {

/// One redeployment phase: LAACAD rounds between two disruptions (or from
/// the initial deployment / to scenario end).
struct PhaseRecord {
  int phase = 0;
  std::string cause;    ///< "initial" or the event type that started it
  int start_round = 0;  ///< global round count when the phase began
  int rounds = 0;       ///< rounds executed in this phase
  bool converged = false;
  int nodes = 0;        ///< network size at phase end
  double final_max_range = 0.0;
  double final_min_range = 0.0;
  wsn::LoadReport load;
  int coverage_min_depth = 0;
  double coverage_mean_depth = 0.0;
  double covered_fraction_k = 0.0;  ///< area fraction with depth >= k
  int components = 0;               ///< radio graph at 1.25 R*
  double battery_min = 0.0;
  double battery_mean = 0.0;
  /// Streaming per-round aggregates (constant memory, always populated).
  core::RoundSeries series;
  /// Full per-round record; only filled when ScenarioSpec::history is set.
  std::vector<core::RoundMetrics> history;
};

struct ScenarioResult {
  ScenarioSpec spec;
  double resolved_gamma = 0.0;  ///< comm range actually used (auto or spec)
  /// The deployment the timeline started from — for renderers and probes
  /// (figure benches) that want before/after pictures. In-memory only;
  /// never serialized into the JSON.
  std::vector<geom::Vec2> initial_positions;
  std::vector<PhaseRecord> phases;
  std::vector<EventRecord> events;
  int total_rounds = 0;
  bool all_converged = false;  ///< every phase converged within max_rounds
  bool final_coverage_ok = false;  ///< last phase min depth >= k
  bool aborted = false;            ///< timeline cut short (e.g. nodes < k)
  std::string abort_reason;

  /// Serialize the full record (config echo, per-phase metrics with round
  /// history, event log, summary) as a JSON document. Excludes execution
  /// details (thread count), so output is byte-identical across threads.
  void write_json(std::ostream& out) const;
};

class ScenarioRunner {
 public:
  /// Validates the spec (scenario::validate) and builds the initial
  /// deployment; throws std::runtime_error on a bad spec.
  explicit ScenarioRunner(ScenarioSpec spec);
  ~ScenarioRunner();

  /// Execute the full timeline. Call once.
  ScenarioResult run();

  /// Deployment state after (or during) run — for tests and visualization.
  const wsn::Network& network() const { return *world_.net; }
  const wsn::Domain& domain() const { return world_.domain(); }

 private:
  PhaseRecord run_phase(int phase_idx, const std::string& cause,
                        int next_event);

  /// All scenario state lives in the shared World; the runner is the batch
  /// driver over scenario::build_world / scenario::apply_event — the same
  /// entry points the serving daemon uses, so replayed and served state
  /// share one code path.
  World world_;
  int global_round_ = 0;
};

}  // namespace laacad::scenario
