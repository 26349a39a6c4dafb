// RegionProvider — the seam between Algorithm 1's round loop and the two
// ways a node can learn its dominating region V^k_{n_i}.
//
// A provider runs in two phases per round, mirroring the communication
// structure of the paper: begin_round() is the "broadcast" phase (snapshot
// positions, rebuild the connectivity model, refresh boundary verdicts),
// compute(i) is the per-node phase — a pure function of the snapshot, safe
// to call concurrently from any number of threads, which is what lets the
// engine fan the N independent region computations across a thread pool
// with bit-identical results for every thread count. begin_round() itself
// runs its data-parallel parts on the engine's lent pool: the grid re-bin
// of both providers, and the localized provider's boundary verdicts and
// comm-model adjacency (per-node pure functions, each writing its own
// slot); what remains serial is the global provider's site separation.
//
// Implementations:
//   GlobalRegionProvider    — the adaptive exact Lemma-1 solver over a
//                             provider-owned spatial grid (re-binned, not
//                             reallocated, between rounds). The grid is
//                             built once per begin_round() and shared by
//                             every compute(i): it bounds the Lemma-1
//                             gathers, and the order-k kernel underneath
//                             pulls its per-cell candidate lists and probe
//                             queries from a spatial index as well (a
//                             thread-local scratch grid over the gathered
//                             subset), so no per-node computation ever
//                             re-sorts the whole network.
//   LocalizedRegionProvider — Algorithm 2 hop-rings over the multi-hop
//                             communication model, with localization noise
//                             drawn from a per-(epoch, node) stream so the
//                             draw sequence is independent of scheduling.
//                             Each node's sites live in its own noisy local
//                             frame, so a shared per-round kernel grid is
//                             impossible by construction; the kernel's
//                             per-thread scratch index (storage reused
//                             across nodes on a worker) covers it instead.
//
// Support radius. Every RegionOutput names the disk around the node's
// position (as the network stores it) whose sites fully determine that
// output, given k and the domain: while no site enters, leaves or moves
// inside that disk and the node itself stays put, compute(i) would return
// the same result bit for bit. The engine uses it to recompute only the
// regions a move can reach (see engine.hpp). The default, +infinity, means
// "depends on everything" and opts the node out of reuse — the right
// answer for any output that also depends on the epoch (the localized
// provider's per-(epoch, node) noise) and the safe one for custom
// providers.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "laacad/localized.hpp"
#include "voronoi/adaptive.hpp"
#include "voronoi/sites.hpp"
#include "wsn/boundary.hpp"
#include "wsn/comm.hpp"
#include "wsn/network.hpp"

namespace laacad::core {

/// What one per-node computation yields: the convex pieces of V^k_{n_i}
/// (generator ids are global node ids), the messages it cost, and the
/// radius of the disk whose sites determine it (see the header comment).
struct RegionOutput {
  std::vector<vor::OrderKCell> cells;
  wsn::CommStats comm;  ///< zeros for providers that do not message
  double support_radius = std::numeric_limits<double>::infinity();
};

class RegionProvider {
 public:
  virtual ~RegionProvider() = default;

  /// Per-round snapshot phase; reads the network, never mutates it.
  /// `epoch` is a strictly increasing call counter supplied by the engine;
  /// providers that consume randomness must derive it from (seed, epoch,
  /// node) only, never from a stream shared across nodes, or parallel
  /// rounds lose determinism.
  /// `pool` (possibly null) is the engine's round pool, lent for data-
  /// parallel snapshot work — anything run on it must stay bit-identical
  /// for every thread count (e.g. SpatialGrid::rebuild); it must not leak
  /// past the call.
  virtual void begin_round(const wsn::Network& net, int k,
                           std::uint64_t epoch,
                           common::ThreadPool* pool = nullptr) = 0;

  /// Dominating region of node i against the begin_round() snapshot. Must be
  /// a pure function of (snapshot, i): implementations may not touch shared
  /// mutable state, so calls are safe from concurrent threads.
  virtual RegionOutput compute(wsn::NodeId i) const = 0;

  virtual std::string_view name() const = 0;
};

/// Adaptive exact solver (Lemma 1, geometric ring growth).
class GlobalRegionProvider final : public RegionProvider {
 public:
  /// Largest network the global snapshot path accepts. Past this size the
  /// per-round full-network separate-and-re-bin (plus the Lemma-1 gathers'
  /// appetite for dense candidate lists) stops being the right tool;
  /// begin_round() refuses with a named error directing callers to the
  /// localized provider rather than degrading into a multi-hour round.
  static constexpr int kMaxSites = 200000;

  /// Added to the Lemma-1 gather radius rho to form support_radius. The
  /// gather ran over degeneracy-separated sites (vor::separate_sites), and
  /// both the node and each site may sit up to max_separation_shift(n)
  /// from the positions the engine compares, so the slack must exceed twice
  /// that bound for the largest accepted network: 2 * 4 passes * (2e5 - 1)
  /// partners * 0.6 * 1e-7 m = 0.096 m. Separation only ever couples sites
  /// closer than 1e-7 m to each other — the co-located k-groups of the
  /// equilibrium — so a moved site outside the slack cannot reach a
  /// gathered site through it.
  static constexpr double kSeparationSlack = 0.1;
  static_assert(kSeparationSlack > 2.0 * vor::max_separation_shift(kMaxSites));

  void begin_round(const wsn::Network& net, int k, std::uint64_t epoch,
                   common::ThreadPool* pool = nullptr) override;
  RegionOutput compute(wsn::NodeId i) const override;
  std::string_view name() const override { return "global"; }

 private:
  int k_ = 1;
  std::vector<geom::Vec2> sites_;  ///< degeneracy-separated snapshot
  wsn::SpatialGrid grid_;          ///< provider-owned, re-binned per round
  geom::BBox bbox_;
};

/// Algorithm 2: hop-granular expanding rings + boundary service.
class LocalizedRegionProvider final : public RegionProvider {
 public:
  explicit LocalizedRegionProvider(LocalizedConfig cfg = {},
                                   std::uint64_t seed = 1);

  void begin_round(const wsn::Network& net, int k, std::uint64_t epoch,
                   common::ThreadPool* pool = nullptr) override;
  RegionOutput compute(wsn::NodeId i) const override;
  std::string_view name() const override { return "localized"; }

 private:
  LocalizedConfig cfg_;
  std::uint64_t seed_;
  int k_ = 1;
  std::uint64_t epoch_ = 0;
  std::optional<wsn::CommModel> comm_;  ///< rebuilt each begin_round
  std::vector<wsn::BoundaryInfo> boundaries_;
};

/// Factory helpers — the usual way call sites select a backend:
///   cfg.provider = make_localized_provider(localized_cfg, seed);
/// A null LaacadConfig::provider means the global solver; only the scenario
/// spec's `backend auto` selects by network size (scenario::build_world).
/// A provider instance carries per-round state; share one across engines
/// only if the engines never run concurrently.
std::shared_ptr<RegionProvider> make_global_provider();
std::shared_ptr<RegionProvider> make_localized_provider(
    LocalizedConfig cfg = {}, std::uint64_t seed = 1);

}  // namespace laacad::core
