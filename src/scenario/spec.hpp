// Declarative scenario specs for dynamic-network experiments.
//
// A scenario describes everything LAACAD's "autonomous deployment" pitch is
// about but a single static run cannot show: the domain, the initial
// deployment, the algorithm configuration, and a *timeline of disruptions*
// (node failures, battery drain, staged arrivals, boundary changes, jammed
// regions) after each of which the surviving network must redeploy and
// re-establish k-coverage.
//
// The on-disk format is deliberately tiny — line-oriented `key value` pairs
// plus `event` and `obstacle` lines, read by common/specparse:
//
//   # cascading failures over a 300 m square
//   name     cascade
//   domain   square
//   side     300
//   nodes    40
//   k        2
//   seed     7
//   event converged fail_nodes count=6 pick=random
//   event round=40 drain_battery epochs=3
//   event converged add_nodes count=8 deploy=corner
//
// `event <trigger> <type> [k=v ...]` fires `type` when `trigger` is met:
// `converged` fires at the end of the current redeployment phase,
// `round=N` fires once the *global* round counter (summed over phases)
// reaches N, interrupting an unconverged phase if necessary. Events fire
// strictly in file order — each one ends the current phase and starts a new
// redeployment phase.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/vec2.hpp"

namespace laacad::scenario {

enum class EventType {
  kFailNodes,       ///< remove nodes (random / inside a rect / largest range)
  kDrainBattery,    ///< subtract energy per the E(r) model; depleted nodes die
  kAddNodes,        ///< deploy fresh nodes (uniform / corner / gaussian)
  kResizeBoundary,  ///< scale the domain outline about its bbox origin
  kJamRegion,       ///< punch a rectangular hole (obstacle) into the domain
};

enum class Trigger {
  kOnConvergence,  ///< fires when the current phase converges (or hits cap)
  kAtRound,        ///< fires when the global round counter reaches `round`
};

const char* to_string(EventType t);

/// One timeline entry. Field meaning depends on `type`; the parser fills
/// defaults and rejects arguments that do not apply. Rectangles (`lo`/`hi`)
/// and gaussian centers are fractions of the current domain bbox, so events
/// stay meaningful after resize_boundary.
struct Event {
  Trigger trigger = Trigger::kOnConvergence;
  int round = 0;  ///< global-round threshold for kAtRound
  EventType type = EventType::kFailNodes;

  int count = 0;                  ///< fail_nodes (0 = all in region) / add_nodes
  std::string pick = "random";    ///< fail_nodes: random | region | max_range
  std::string deploy = "uniform"; ///< add_nodes: uniform | corner | gaussian
  double epochs = 0.0;            ///< drain_battery: energy-model epochs
  double fraction = 0.0;          ///< drain_battery: fraction of full battery
  double scale = 1.0;             ///< resize_boundary factor, > 0
  geom::Vec2 lo{0.0, 0.0};        ///< rect for pick=region / jam_region
  geom::Vec2 hi{1.0, 1.0};
  geom::Vec2 at{0.5, 0.5};        ///< gaussian center (bbox fractions)
  double sigma = 0.1;             ///< gaussian spread (fraction of bbox width)
  int line = 0;                   ///< source line, for error messages
};

/// One pre-punched rectangular obstacle, in bbox fractions like event
/// rectangles: `obstacle x0 y0 x1 y1` in the spec file. This is what lets
/// a scenario describe the paper's Fig. 8 domains (irregular outlines with
/// specific obstacles) declaratively, rather than only the one canned
/// `hole` rectangle.
struct ObstacleRect {
  geom::Vec2 lo{0.0, 0.0};
  geom::Vec2 hi{1.0, 1.0};
  int line = 0;  ///< source line, for error messages
};

/// Full experiment description. Defaults reproduce a modest 2-coverage run
/// on the unit square scaled to 300 m.
struct ScenarioSpec {
  std::string name = "unnamed";
  std::string domain = "square";  ///< square | lshape | cross
  double side = 300.0;
  bool hole = false;              ///< pre-punch the laacad_sim obstacle
  /// Extra obstacles punched at setup, after `hole`, in file order.
  std::vector<ObstacleRect> obstacles;
  /// uniform | corner | gaussian | stacked (stacked: floor(nodes/k)
  /// uniformly placed anchors with k co-located nodes each — the paper's
  /// "even clustering" equilibrium as a *starting* configuration; the
  /// deployed count rounds down to a multiple of k).
  std::string deploy = "uniform";
  int nodes = 40;
  int k = 2;
  double alpha = 1.0;
  double epsilon = 0.5;
  int max_rounds = 300;  ///< per redeployment phase
  double gamma = 0.0;    ///< transmission range; 0 = density-aware auto
  /// global | localized | auto (auto: build_world picks global up to
  /// LaacadConfig::provider_auto_threshold nodes, localized above it).
  std::string backend = "global";
  int max_hops = 10;
  double noise = 0.0;
  /// ideal | ttl — gather semantics of the localized backend
  /// (LocalizedConfig::ideal_gather): `ideal` is the paper's Algorithm 2
  /// assumption (every Euclidean-close node is found regardless of radio
  /// path), `ttl` caps the flood at ceil(rho/gamma) + slack hops.
  std::string flooding = "ideal";
  std::uint64_t seed = 1;
  int num_threads = 1;  ///< execution detail; never serialized into metrics
  /// Retain (and serialize) the full per-round history of every phase. Off
  /// by default: per-phase aggregates and the streaming series cover the
  /// usual consumers, and O(rounds) records per phase is exactly the memory
  /// shape the million-node runs cannot afford. Output detail like
  /// `threads`, not a physical key — the campaign engine cannot sweep it.
  bool history = false;
  double battery = 1.0e6;
  double grid_resolution = 5.0;  ///< coverage-check lattice spacing (m)
  std::vector<Event> events;
};

/// Set one *physical* config key (domain, side, hole, deploy, nodes, k,
/// alpha, epsilon, max_rounds, gamma, backend, max_hops, noise, flooding,
/// battery, grid_resolution) from its textual value, parsed exactly as the file
/// format parses it. Returns false for keys outside this set (name, seed,
/// threads, event — those stay with their owning parser: the campaign
/// engine sweeps physical keys through this call but must never sweep
/// identity or execution keys). Throws std::runtime_error ("line N: ...")
/// on a malformed value.
bool set_key(ScenarioSpec& spec, const std::string& key,
             const std::string& value, int line);

/// Parse a scenario. Throws std::runtime_error with a "line N: ..." message
/// on malformed input; unknown keys are errors (a typo silently ignored
/// would corrupt an experiment).
ScenarioSpec parse_scenario_string(const std::string& text);

/// Load and parse a scenario file; the file name (sans directory and
/// extension) overrides `name` when the spec does not set one. Errors read
/// "<path>: line N: ...".
ScenarioSpec load_scenario_file(const std::string& path);

/// Serialize one event as a spec-format line ("event round=N type k=v ...",
/// no trailing newline) that round-trips exactly through parse_scenario_string.
/// The serving daemon's event log is the spec header plus these lines.
std::string format_event(const Event& ev);

/// Serialize the identity and physical configuration of `spec` (name,
/// seed, the physical keys, then obstacle lines; not events, `threads` or
/// `history` — execution and output details are not part of the
/// experiment) as spec lines written from the parser's key tables. Parsing
/// the result reproduces the spec field-for-field; appending format_event
/// lines reproduces the timeline. A campaign fingerprint hashes its base
/// config's header. Names containing whitespace cannot round-trip through
/// the token-based format and are rejected.
std::string format_spec_header(const ScenarioSpec& spec);

/// Parse an event *body* — "<type> [name=value ...]", with no `event`
/// keyword and no trigger — the vocabulary a daemon client submits; the
/// service stamps the trigger round itself. Returns an event with the
/// default kOnConvergence trigger. Throws std::runtime_error on malformed
/// input, with the same messages as the file parser (an add_nodes count
/// above kMaxNodes included).
Event parse_event_body(const std::string& text);

/// Most grid-coverage samples a spec may ask for: ceil(side /
/// grid_resolution)^2. The largest shipped or benchmarked spec needs about
/// 4.8e5; grid_resolution 0.001 on a 300 m side would ask for 9e10 and
/// does not finish within a minute.
inline constexpr double kMaxCoverageSamples = 1e8;

/// Most nodes a spec may ever hold: `nodes` plus every add_nodes arrival.
/// Twice the largest budgeted scale-ladder rung (10^6 nodes, about 0.5 GiB
/// peak RSS), so every shipped run fits while a typo such as
/// `add_nodes count=100000000` is refused before it allocates.
inline constexpr int kMaxNodes = 2'000'000;

/// Spec-level sanity checks shared by parser and runner: positive side,
/// nodes >= k >= 1, alpha in (0,1], epsilon > 0, max_rounds > 0, at most
/// kMaxCoverageSamples coverage samples, at most kMaxNodes nodes counting
/// every add_nodes arrival, known domain/deploy/backend
/// strings, event arguments in range. Throws std::runtime_error naming the
/// offending field.
void validate(const ScenarioSpec& spec);

}  // namespace laacad::scenario
