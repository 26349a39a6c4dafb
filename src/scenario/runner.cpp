#include "scenario/runner.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <ostream>

#include "common/json_writer.hpp"
#include "obs/trace.hpp"
#include "wsn/connectivity.hpp"

namespace laacad::scenario {

ScenarioRunner::ScenarioRunner(ScenarioSpec spec)
    : world_(build_world(std::move(spec))) {}

ScenarioRunner::~ScenarioRunner() = default;

PhaseRecord ScenarioRunner::run_phase(int phase_idx, const std::string& cause,
                                      int next_event) {
  obs::ScopedSpan phase_span("phase", phase_idx);
  const ScenarioSpec& spec = world_.spec;
  PhaseRecord rec;
  rec.phase = phase_idx;
  rec.cause = cause;
  rec.start_round = global_round_;

  const Event* pending =
      next_event < static_cast<int>(spec.events.size())
          ? &spec.events[static_cast<std::size_t>(next_event)]
          : nullptr;
  // A round-scheduled disruption interrupts the phase, converged or not.
  // Engine::run finalizes either way: it tunes the sensing ranges for the
  // current positions and reports their load balance.
  std::function<void(const core::RoundMetrics&)> record;
  if (spec.history)
    record = [&rec](const core::RoundMetrics& m) { rec.history.push_back(m); };
  const core::RunResult run = world_.engine->run(
      [&] {
        return pending && pending->trigger == Trigger::kAtRound &&
               rec.start_round + world_.engine->rounds_executed() >=
                   pending->round;
      },
      record);
  global_round_ += run.rounds;
  rec.rounds = run.rounds;
  rec.converged = run.converged;
  rec.final_max_range = run.final_max_range;
  rec.final_min_range = run.final_min_range;
  rec.load = run.load;
  rec.series = run.series;

  // Verify what this phase actually delivers: k-coverage, connectivity.
  obs::ScopedSpan verify_span("verify");
  rec.nodes = world_.net->size();
  {
    obs::ScopedSpan span("grid_coverage");
    const CoverageCheck coverage =
        check_coverage(*world_.net, spec.k, spec.grid_resolution);
    rec.coverage_min_depth = coverage.min_depth;
    rec.coverage_mean_depth = coverage.mean_depth;
    rec.covered_fraction_k = coverage.fraction_at_k;
  }

  {
    obs::ScopedSpan span("connectivity");
    rec.components = rec.final_max_range > 0.0
                         ? wsn::analyze_connectivity(
                               *world_.net, 1.25 * rec.final_max_range)
                               .components
                         : world_.net->size();
  }

  if (!world_.battery.empty()) {
    rec.battery_min =
        *std::min_element(world_.battery.begin(), world_.battery.end());
    rec.battery_mean =
        std::accumulate(world_.battery.begin(), world_.battery.end(), 0.0) /
        static_cast<double>(world_.battery.size());
  }
  return rec;
}

ScenarioResult ScenarioRunner::run() {
  const ScenarioSpec& spec = world_.spec;
  ScenarioResult result;
  result.spec = spec;
  result.resolved_gamma = world_.net->gamma();
  result.initial_positions = world_.initial_positions;

  int next_event = 0;
  std::string cause = "initial";
  for (int phase_idx = 0;; ++phase_idx) {
    result.phases.push_back(run_phase(phase_idx, cause, next_event));

    if (next_event >= static_cast<int>(spec.events.size())) break;
    const Event& ev = spec.events[static_cast<std::size_t>(next_event)];

    // A converged network idles (no movement, no round cost) until a
    // round-scheduled disruption arrives: fast-forward the clock.
    int idle = 0;
    if (ev.trigger == Trigger::kAtRound && global_round_ < ev.round) {
      idle = ev.round - global_round_;
      global_round_ = ev.round;
    }
    // apply_event stamps global_round after the fast-forward above.
    EventRecord erec = apply_event(world_, ev, next_event, global_round_);
    erec.idle_rounds = idle;
    result.events.push_back(std::move(erec));
    ++next_event;

    if (std::string reason = below_k_reason(world_); !reason.empty()) {
      result.aborted = true;
      result.abort_reason = std::move(reason);
      break;
    }
    world_.engine->begin_phase();
    cause = to_string(ev.type);
  }

  result.total_rounds = global_round_;
  result.all_converged =
      std::all_of(result.phases.begin(), result.phases.end(),
                  [](const PhaseRecord& p) { return p.converged; });
  result.final_coverage_ok =
      !result.aborted &&
      result.phases.back().coverage_min_depth >= spec.k;
  return result;
}

void ScenarioResult::write_json(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "laacad.scenario.v1");
  w.kv("scenario", spec.name);

  w.key("config").begin_object();
  w.kv("domain", spec.domain);
  w.kv("side", spec.side);
  w.kv("hole", spec.hole);
  if (!spec.obstacles.empty()) {
    w.key("obstacles").begin_array();
    for (const ObstacleRect& rect : spec.obstacles) {
      w.begin_array();
      w.value(rect.lo.x);
      w.value(rect.lo.y);
      w.value(rect.hi.x);
      w.value(rect.hi.y);
      w.end_array();
    }
    w.end_array();
  }
  w.kv("deploy", spec.deploy);
  w.kv("nodes", spec.nodes);
  w.kv("k", spec.k);
  w.kv("alpha", spec.alpha);
  w.kv("epsilon", spec.epsilon);
  w.kv("max_rounds", spec.max_rounds);
  w.kv("gamma", spec.gamma);  // 0 = auto; see gamma_used for the real value
  w.kv("gamma_used", resolved_gamma);
  w.kv("backend", spec.backend);
  if (spec.backend == "localized") {
    w.kv("max_hops", spec.max_hops);
    w.kv("noise", spec.noise);
    w.kv("flooding", spec.flooding);
  }
  w.kv("seed", spec.seed);
  w.kv("battery", spec.battery);
  w.kv("grid_resolution", spec.grid_resolution);
  w.end_object();

  w.key("phases").begin_array();
  for (const PhaseRecord& p : phases) {
    w.begin_object();
    w.kv("phase", p.phase);
    w.kv("cause", p.cause);
    w.kv("start_round", p.start_round);
    w.kv("rounds", p.rounds);
    w.kv("converged", p.converged);
    w.kv("nodes", p.nodes);
    w.kv("final_max_range", p.final_max_range);
    w.kv("final_min_range", p.final_min_range);
    w.key("load").begin_object();
    w.kv("max", p.load.max_load);
    w.kv("min", p.load.min_load);
    w.kv("total", p.load.total_load);
    w.kv("fairness", p.load.fairness);
    w.end_object();
    w.key("coverage").begin_object();
    w.kv("min_depth", p.coverage_min_depth);
    w.kv("mean_depth", p.coverage_mean_depth);
    w.kv("fraction_at_k", p.covered_fraction_k);
    w.end_object();
    w.kv("components", p.components);
    w.key("battery").begin_object();
    w.kv("min", p.battery_min);
    w.kv("mean", p.battery_mean);
    w.end_object();
    // Streaming aggregates are always present; the full per-round history
    // only when the spec opted in (`history true`) — its absence is the
    // constant-memory contract, not a truncation.
    w.key("series").begin_object();
    w.kv("travel", p.series.travel);
    w.kv("mean_max_circumradius", p.series.max_circumradius.mean());
    w.kv("mean_max_move", p.series.max_move.mean());
    w.kv("mean_moved", p.series.moved.mean());
    w.end_object();
    if (spec.history) {
      w.key("history").begin_array();
      for (const core::RoundMetrics& m : p.history) {
        w.begin_object();
        w.kv("round", m.round);
        w.kv("max_circumradius", m.max_circumradius);
        w.kv("min_circumradius", m.min_circumradius);
        w.kv("max_hat_radius", m.max_hat_radius);
        w.kv("max_move", m.max_move);
        w.kv("moved", m.moved);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();

  w.key("events").begin_array();
  for (const EventRecord& e : events) {
    w.begin_object();
    w.kv("index", e.index);
    w.kv("type", e.type);
    w.kv("global_round", e.global_round);
    w.kv("idle_rounds", e.idle_rounds);
    w.kv("nodes_before", e.nodes_before);
    w.kv("nodes_after", e.nodes_after);
    w.kv("detail", e.detail);
    w.end_object();
  }
  w.end_array();

  w.key("summary").begin_object();
  w.kv("phases", static_cast<std::int64_t>(phases.size()));
  w.kv("events_fired", static_cast<std::int64_t>(events.size()));
  w.kv("total_rounds", total_rounds);
  w.kv("final_nodes", phases.empty() ? 0 : phases.back().nodes);
  w.kv("all_converged", all_converged);
  w.kv("final_coverage_ok", final_coverage_ok);
  w.kv("aborted", aborted);
  if (aborted) w.kv("abort_reason", abort_reason);
  w.end_object();

  w.end_object();
  out << '\n';
}

}  // namespace laacad::scenario
