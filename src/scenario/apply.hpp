// Shared world state + event application for the batch runner and the
// serving daemon.
//
// `World` is everything a ScenarioSpec instantiates: the domain stack, the
// live network, the engine, per-node batteries, and the one seeded Rng that
// deployment and events consume in order. `build_world` is the setup path
// (validation, obstacle punching, deployment, engine construction) and
// `apply_event` mutates the world exactly the way the batch ScenarioRunner
// always has — both the runner and serve::CoverageService go through these
// two entry points, so served state and replayed state cannot drift.
//
// Determinism contract: build_world consumes RNG for the deployment only;
// apply_event consumes RNG only for events it actually applies (a rejected
// event throws before any mutation or RNG draw). Replaying the same spec +
// event sequence therefore reproduces the same world bit-for-bit.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "laacad/engine.hpp"
#include "scenario/spec.hpp"
#include "wsn/network.hpp"

namespace laacad::scenario {

/// One applied disruption.
struct EventRecord {
  int index = 0;         ///< position in the spec timeline
  std::string type;
  int global_round = 0;  ///< when it fired
  int idle_rounds = 0;   ///< converged rounds skipped waiting for round=N
  int nodes_before = 0;
  int nodes_after = 0;
  std::string detail;    ///< human-readable summary ("removed 6 nodes", ...)
};

/// Live state instantiated from a ScenarioSpec. Movable (the engine and
/// network hold pointers to heap objects whose addresses survive the move),
/// not copyable.
struct World {
  ScenarioSpec spec;
  /// Domains are appended by resize/jam events; earlier entries stay alive
  /// because positions were projected under them mid-run. Back is current.
  std::vector<std::unique_ptr<wsn::Domain>> domains;
  std::unique_ptr<wsn::Network> net;
  std::unique_ptr<core::Engine> engine;
  std::vector<double> battery;  ///< indexed by node id, like net's columns
  std::vector<geom::Vec2> initial_positions;
  Rng rng{1};  ///< deployment + event randomness, in order

  const wsn::Domain& domain() const { return *domains.back(); }
};

/// Validate the spec and build the initial world: named domain, punched
/// obstacles, deployment (including `stacked`), gamma resolution, batteries,
/// engine with the spec's backend. Throws std::runtime_error on a bad spec.
World build_world(ScenarioSpec spec);

/// Why the timeline must stop after an event: the network dropped below k
/// nodes. Empty while the network still has at least k. The batch runner
/// and the daemon both record this text as their (serialized) abort reason.
std::string below_k_reason(const World& w);

/// A phase's grid coverage check: the depth the network's sensing disks
/// reach on a lattice of `grid_resolution` spacing (m) over its domain.
struct CoverageCheck {
  int min_depth = 0;
  double mean_depth = 0.0;
  double fraction_at_k = 0.0;  ///< area fraction with depth >= k
};
CoverageCheck check_coverage(const wsn::Network& net, int k,
                             double grid_resolution);

/// Apply one disruption to the world. `index` is the event's position in
/// the timeline (traced as the "event" span id); `global_round` stamps the
/// record. Throws std::runtime_error — *before* touching the world or its
/// RNG — when the event is invalid against the current world (a
/// jam_region outside the domain, an arrival past kMaxNodes).
EventRecord apply_event(World& w, const Event& ev, int index,
                        int global_round);

}  // namespace laacad::scenario
