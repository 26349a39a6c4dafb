// LAACAD — Algorithm 1 of the paper.
//
// Every round, synchronously for all nodes: compute the dominating region
// V^k_{n_i} (through a RegionProvider — exact adaptive Lemma-1 solver or the
// hop-faithful localized Algorithm 2), find its Chebyshev center c_i, and
// move u_i <- u_i + alpha (c_i - u_i) unless already within the stopping
// tolerance epsilon (LaacadConfig::target swaps c_i for an ablation's
// target rule). On termination each node tunes its sensing range to the
// circumradius of its dominating region about its final position, which
// guarantees k-coverage of the whole target area (every point lies in the
// dominating region of each of its k nearest nodes, Proposition 1).
//
// The per-node region computations are independent (the paper's nodes run
// them literally in parallel), so the engine fans them across a
// common::ThreadPool and reduces the results in fixed node order. Round
// metrics and trajectories are bit-identical for every num_threads value.
//
// Incremental rounds. Converged nodes stop moving (Algorithm 1), and by
// Lemma 1 a region depends only on the sites inside its certified gather
// radius, which providers report as RegionOutput::support_radius. The
// engine therefore recomputes only the dirty nodes: those that moved since
// the last pass, those with infinite support, and those whose support disk
// holds the old or new position of a moved node. Every other node reuses
// its previous result bit for bit, so trajectories, metrics and ranges are
// exactly those of a full recompute. finalize() runs the same pass and then
// only writes the cached circumradii as sensing ranges, so it reuses the
// last round wherever nothing moved. The dirty set is a serial function of
// positions only, hence identical for every thread count. The cache is
// dropped by begin_phase() and whenever the node count or the domain
// changes; the localized provider (infinite support) recomputes everything.
//
// Memory is O(n), independent of round count and of region complexity: each
// per-node region is reduced to a few doubles (target, radii) on the worker
// that computed it and the polygon soup discarded. That O(n) cache of
// distilled results, support radii and the positions they were computed at
// persists between rounds. Per-round metrics stream into constant-size
// accumulators (RunResult::series); a caller that wants every round's
// RoundMetrics collects them from run()'s `on_round`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "laacad/region.hpp"
#include "laacad/region_provider.hpp"
#include "wsn/energy.hpp"
#include "wsn/network.hpp"

namespace laacad::core {

/// A motion target rule: a node's dominating region and position -> the
/// point it moves toward.
using TargetFn = std::function<geom::Vec2(const DominatingRegion& region,
                                          geom::Vec2 position)>;

/// Algorithm 1's parameters (k, alpha, epsilon, the round cap), its two
/// seams (the region backend and the target rule), and the thread count.
/// The solvers' fixed geometry (Lemma-1 window, ring growth, arc sampling,
/// boundary thresholds) is named constants in their own sources, not
/// configuration.
struct LaacadConfig {
  int k = 1;               ///< coverage degree
  double alpha = 1.0;      ///< motion step size, (0, 1]
  double epsilon = 0.5;    ///< stopping tolerance (metres)
  int max_rounds = 400;
  /// Threads for the per-round region fan-out: 1 = serial (default),
  /// 0 = hardware concurrency, N = exactly N. Results are identical for
  /// every value.
  int num_threads = 1;
  /// Region backend. Null selects the exact global solver; for Algorithm 2
  /// set
  ///   cfg.provider = make_localized_provider(localized_cfg, seed);
  /// The scenario spec's `backend auto` maps to one of the two by network
  /// size (scenario::build_world, provider_auto_threshold).
  std::shared_ptr<RegionProvider> provider;
  /// Motion target rule: where a node with a non-empty dominating region
  /// moves. Null selects Algorithm 1's Chebyshev center (Proposition 3);
  /// baselines/ supplies the centroid and VOR ablations. Must be a pure
  /// function of its two arguments: it runs on pool workers, and the engine
  /// caches its result and reuses it for nodes whose region did not change.
  /// Never called for an empty region (such a node holds position).
  TargetFn target;
  /// Network size above which `backend auto` selects the localized
  /// backend: past it the exact global snapshot is the wrong tool (see
  /// GlobalRegionProvider::kMaxSites).
  static constexpr int provider_auto_threshold = 20000;
};

/// Per-round aggregates; mirrors the series plotted in Fig. 6.
struct RoundMetrics {
  int round = 0;
  double max_circumradius = 0.0;  ///< max_i of the Chebyshev radius of V^k_i
  double min_circumradius = 0.0;
  double max_hat_radius = 0.0;    ///< max_i max_{v in V^k_i} |v - u_i| (R̂^l)
  double max_move = 0.0;          ///< largest node displacement this round
  int moved = 0;                  ///< nodes that moved more than epsilon
  wsn::CommStats comm;            ///< localized provider message accounting
};

/// Constant-memory digest of the whole round sequence: every field is a
/// running accumulator updated once per round, so a million-round run costs
/// the same memory as a ten-round one. `last` is the final round's full
/// RoundMetrics — the convergence tail most consumers actually inspect.
struct RoundSeries {
  int rounds = 0;
  double travel = 0.0;       ///< sum over rounds of max_move (Fig. 6 travel)
  Summary max_circumradius;  ///< per-round max circumradius series
  Summary max_move;          ///< per-round max displacement series
  Summary moved;             ///< per-round moved-node counts
  RoundMetrics last;         ///< metrics of the most recent round
  wsn::CommStats comm;       ///< message totals across all rounds

  void add(const RoundMetrics& m);
};

struct RunResult {
  RoundSeries series;  ///< per-round aggregates, O(1) memory
  int rounds = 0;
  bool converged = false;
  double final_max_range = 0.0;  ///< R* = max_i r*_i
  double final_min_range = 0.0;
  wsn::LoadReport load;          ///< energy loads at termination
};

class Engine {
 public:
  /// The engine mutates `net` (positions and, at termination, sensing
  /// ranges). The network must have at least cfg.k nodes.
  Engine(wsn::Network& net, LaacadConfig cfg);

  /// Execute one synchronized round; returns its metrics. Does not assign
  /// sensing ranges (call finalize(), or use run()).
  RoundMetrics step();

  /// Rounds until no node moves more than epsilon, or max_rounds. Assigns
  /// final sensing ranges and returns the full record. This is the one
  /// convergence loop: every driver (batch scenarios, the serving daemon,
  /// the CLI) runs its phases through it. `interrupted`, when set, is
  /// polled before every round including the first; once it returns true
  /// the phase ends unconverged and is still finalized. `on_round`, when
  /// set, sees each round's metrics as soon as the round completes.
  RunResult run(const std::function<bool()>& interrupted = {},
                const std::function<void(const RoundMetrics&)>& on_round = {});

  /// Re-arm the convergence loop after an external network change (node
  /// failures/arrivals, a domain swap): resets the round counter so run()
  /// gets a fresh max_rounds allowance and re-checks that the mutated
  /// network still has at least k nodes. Providers re-snapshot every round
  /// and the epoch counter keeps increasing monotonically, so randomized
  /// providers never replay a phase's noise streams. Used by the scenario
  /// engine to drive redeployment phases between disruptions.
  void begin_phase();

  /// Bring every region up to date with the current positions (recomputing
  /// only what changed since the last round) and set each node's sensing
  /// range to its region circumradius about its position.
  void finalize();

  /// Dominating region of node i at the current positions (for inspection,
  /// visualization, and tests). Computes node i's region only — not a
  /// full-network pass — and neither reads nor updates the round cache.
  DominatingRegion region_of(wsn::NodeId i);

  const LaacadConfig& config() const { return cfg_; }
  const RegionProvider& provider() const { return *provider_; }
  /// Rounds executed in the current phase (since construction or the last
  /// begin_phase()).
  int rounds_executed() const { return round_; }

 private:
  /// What the engine keeps of one node's dominating region: a few doubles,
  /// not the polygon soup. Computed on the worker that built the region so
  /// the cells can be freed immediately — this is what keeps a round's
  /// footprint O(n) instead of O(n · region complexity).
  struct NodeRound {
    geom::Vec2 target{};       ///< target rule's output (valid iff has_target)
    double cheb_radius = 0.0;
    double hat_radius = 0.0;   ///< circumradius about u_i; 0 if region empty
    double support = 0.0;      ///< RegionOutput::support_radius
    bool has_target = false;   ///< region non-empty
  };

  /// Serial snapshot phase: hand the network (and the round pool) to the
  /// provider and advance the epoch.
  void snapshot_round();

  /// Ascending ids of the nodes whose cached result may be stale (every
  /// node when the cache is invalid). Serial, positions only.
  std::vector<int> dirty_nodes() const;

  /// Recompute the `dirty` nodes' regions against the current snapshot and
  /// store them in the cache — the pass step() and finalize() share.
  /// step() passes `comm`, which receives one CommStats per recomputed
  /// node in `dirty` order. finalize() passes null: it reads only the hat
  /// radii, so nodes with infinite support (never reused) skip their
  /// Chebyshev center there.
  void refresh(const std::vector<int>& dirty,
               std::vector<wsn::CommStats>* comm);

  /// With no finite support nothing can be reused, so the cache is freed
  /// after each pass instead of held until the next one.
  void release_unreusable_cache();

  wsn::Network* net_;
  LaacadConfig cfg_;
  std::shared_ptr<RegionProvider> provider_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< null when serial
  std::uint64_t epoch_ = 0;  ///< counts provider snapshots, not rounds
  int round_ = 0;

  // Round cache, one slot per node, valid for cache_domain_ and the node
  // count it was sized for. cache_pos_ holds the positions it was computed
  // at; it is empty when the cache is invalid or holds nothing reusable
  // (no finite support radius), and then every node is dirty.
  std::vector<NodeRound> cache_;
  std::vector<geom::Vec2> cache_pos_;
  const wsn::Domain* cache_domain_ = nullptr;
};

}  // namespace laacad::core
