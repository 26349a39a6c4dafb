// Declarative campaign specs: parameter sweeps over seeded trials.
//
// Every figure and table in the LAACAD paper is a *sweep* — coverage degree
// k, load-balance factor alpha, node count, deployment shape varied over
// seeded repetitions. A campaign describes one such sweep declaratively and
// expands it into a reproducible trial matrix that the CampaignScheduler
// shards across workers.
//
// The on-disk format is line-oriented `key value` pairs like scenarios/,
// read by common/specparse:
//
//   # alpha ablation, 3 seeds per point
//   name     alpha_ablation
//   trials   3
//   seed     31
//   nodes    60
//   k        2
//   side     500
//   sweep alpha 0.2 0.4 0.6 0.8 1.0
//
// Keys are either campaign-level (`name`, `trials`, `seed`, `scenario`,
// `sweep`) or any *physical* scenario config key (domain, side, deploy,
// nodes, k, alpha, ... — exactly the scenario::set_key set), which fixes
// that parameter for every trial. `sweep <key> <v1> <v2> ...` adds an axis;
// the trial matrix is the cartesian product of all axes times `trials`
// seeded repetitions. `scenario <file.scn>` (or `sweep scenario a.scn
// b.scn`) bases trials on a dynamic-network scenario instead of a static
// run; fixed keys and swept values are applied on top of the loaded file.
//
// Execution keys (threads) and identity keys (seed of an individual trial)
// are deliberately not sweepable: per-trial seeds are derived with
// Rng::derive(seed, point, rep), so the matrix is bit-reproducible
// regardless of worker count or completion order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.hpp"

namespace laacad::campaign {

/// One swept parameter: a scenario::set_key key (or "scenario") and the
/// textual values it takes, in spec order.
struct Axis {
  std::string key;
  std::vector<std::string> values;
};

struct CampaignSpec {
  std::string name = "unnamed";
  int trials = 1;           ///< seeded repetitions per grid point
  std::uint64_t seed = 1;   ///< base seed for per-trial derivation
  /// Fixed physical config for static trials; also records the spec's
  /// explicit overrides (below) so scenario-based trials apply them too.
  scenario::ScenarioSpec base;
  /// Physical keys the campaign file set explicitly, in file order —
  /// re-applied over a loaded scenario file before the swept values.
  std::vector<std::pair<std::string, std::string>> base_overrides;
  std::string scenario_file;  ///< optional .scn every trial starts from
  std::vector<Axis> axes;     ///< sweep order = file order (axis 0 outermost)
  std::string dir;            ///< spec file directory; resolves scenario paths
};

/// One cell of the expanded trial matrix.
struct TrialPoint {
  int trial = 0;   ///< global index: point * trials + rep
  int point = 0;   ///< grid-point index (row-major over axes)
  int rep = 0;     ///< repetition within the point, [0, trials)
  std::uint64_t seed = 0;  ///< Rng::derive(campaign seed, point, rep)
  /// Axis values at this point, parallel to CampaignSpec::axes.
  std::vector<std::pair<std::string, std::string>> values;
};

/// Parse a campaign. Throws std::runtime_error with a "line N: ..." message
/// on malformed input; unknown keys are errors.
CampaignSpec parse_campaign_string(const std::string& text);

/// Load and parse a campaign file; the file name (sans directory and
/// extension) overrides `name` when the spec does not set one, and the
/// file's directory becomes `dir` for scenario path resolution. Errors read
/// "<path>: line N: ...".
CampaignSpec load_campaign_file(const std::string& path);

/// Sanity checks shared by parser and scheduler: trials >= 1, unique
/// non-empty axes, axis keys sweepable, scenario not both fixed and swept;
/// for purely static campaigns the base config must pass
/// scenario::validate. Throws std::runtime_error naming the offending field.
void validate(const CampaignSpec& spec);

/// Expand the cartesian product of axes times `trials` repetitions, in
/// deterministic row-major order (axis 0 outermost, rep innermost), with
/// derived per-trial seeds. A campaign with no axes yields `trials` points
/// of the base config.
std::vector<TrialPoint> expand_grid(const CampaignSpec& spec);

/// Resolve a scenario reference against the campaign's directory (absolute
/// paths and dir-less specs pass through unchanged).
std::string resolve_scenario_path(const CampaignSpec& spec,
                                  const std::string& value);

/// Stable 64-bit fingerprint of the campaign identity: name, trials, seed,
/// base config, overrides, axes, and the *contents* of every referenced
/// scenario file (so editing a .scn invalidates stale manifests) — the
/// manifest's guard against resuming trials of a different campaign.
std::uint64_t fingerprint(const CampaignSpec& spec);

}  // namespace laacad::campaign
