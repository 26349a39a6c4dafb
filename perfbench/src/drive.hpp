// The benchmark's own drive of a scenario timeline, and the engine-layer
// metrics every traced run derives from it.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "scenario/apply.hpp"

namespace perfbench {

struct PhaseOut {
  int rounds = 0;
  bool converged = false;
  int nodes = 0;
  double rmax = 0.0;
  double rmin = 0.0;
  int min_depth = 0;
  double mean_depth = 0.0;
  int components = 0;
};

struct Drive {
  double solve_s = 0.0;  ///< built world -> every phase verified
  std::vector<double> step_ms, finalize_ms, verify_ms, apply_ms;
  std::vector<PhaseOut> phases;
  std::uint64_t regions = 0;  ///< dominating regions computed (rounds + finalize)
};

/// The phase loop of scenario::ScenarioRunner::run, call for call
/// (Engine::step until converged or capped, Engine::finalize, load /
/// coverage / connectivity verification, apply_event, begin_phase), with
/// each call timed.
Drive drive_world(laacad::scenario::World& w);

/// True when the spec's engine runs the localized provider.
bool uses_localized(const laacad::scenario::ScenarioSpec& spec);

/// Phases not verified k-covered; global phases must also converge
/// (localized phases stop at their round cap by design).
int failed_phases(const Drive& d, const laacad::scenario::ScenarioSpec& spec);

/// Phase records bit-identical.
bool same_records(const Drive& a, const Drive& b);

/// Drives `spec` untraced at opt.threads, under obs timers, and at one
/// thread; gates that all three agree and verify; reports laacad.*,
/// scenario.*, and (through probe_network_layers on the final network)
/// voronoi.*, wsn.*, coverage.* and serve.publish_us. Returns the traced ÷
/// untraced solve time minus one.
double report_engine_layers(const Options& opt,
                            laacad::scenario::ScenarioSpec spec, Result& res);

}  // namespace perfbench
