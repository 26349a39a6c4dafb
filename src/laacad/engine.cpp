#include "laacad/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"

namespace laacad::core {

using geom::Vec2;

void RoundSeries::add(const RoundMetrics& m) {
  ++rounds;
  travel += m.max_move;
  max_circumradius.add(m.max_circumradius);
  max_move.add(m.max_move);
  moved.add(static_cast<double>(m.moved));
  comm.merge(m.comm);
  last = m;
}

Engine::Engine(wsn::Network& net, LaacadConfig cfg)
    : net_(&net), cfg_(std::move(cfg)) {
  // Validate the whole config up front with messages naming the field and
  // its constraint — a bad epsilon or max_rounds silently produced a
  // zero-round "run" before, which looked like instant convergence.
  if (cfg_.k <= 0)
    throw std::invalid_argument("LaacadConfig: k must be >= 1, got " +
                                std::to_string(cfg_.k));
  if (net.size() < cfg_.k)
    throw std::invalid_argument(
        "LaacadConfig: need at least k nodes for k-coverage (k=" +
        std::to_string(cfg_.k) + ", nodes=" + std::to_string(net.size()) +
        ")");
  if (cfg_.alpha <= 0.0 || cfg_.alpha > 1.0)
    throw std::invalid_argument("LaacadConfig: alpha must be in (0, 1], got " +
                                std::to_string(cfg_.alpha));
  if (cfg_.epsilon <= 0.0)
    throw std::invalid_argument("LaacadConfig: epsilon must be > 0, got " +
                                std::to_string(cfg_.epsilon));
  if (cfg_.max_rounds <= 0)
    throw std::invalid_argument("LaacadConfig: max_rounds must be >= 1, got " +
                                std::to_string(cfg_.max_rounds));
  if (cfg_.num_threads < 0)
    throw std::invalid_argument(
        "LaacadConfig: num_threads must be >= 0 (0 = hardware), got " +
        std::to_string(cfg_.num_threads));
  if (cfg_.provider_auto_threshold < 1)
    throw std::invalid_argument(
        "LaacadConfig: provider_auto_threshold must be >= 1, got " +
        std::to_string(cfg_.provider_auto_threshold));
  if (cfg_.provider) {
    provider_ = cfg_.provider;
  } else if (net.size() > cfg_.provider_auto_threshold) {
    // Past the threshold the exact global snapshot is the wrong tool (and
    // GlobalRegionProvider refuses outright at kMaxSites): default to the
    // localized Algorithm 2, whose per-round cost is O(n · neighborhood).
    provider_ = make_localized_provider(cfg_.localized, cfg_.seed);
  } else {
    provider_ = make_global_provider(cfg_.adaptive);
  }
  if (cfg_.num_threads != 1)
    pool_ = std::make_unique<common::ThreadPool>(cfg_.num_threads);
}

void Engine::begin_phase() {
  if (net_->size() < cfg_.k)
    throw std::invalid_argument(
        "Engine::begin_phase: network dropped below k nodes (k=" +
        std::to_string(cfg_.k) + ", nodes=" + std::to_string(net_->size()) +
        ")");
  round_ = 0;  // epoch_ deliberately keeps counting across phases
}

void Engine::snapshot_round() {
  provider_->begin_round(*net_, cfg_.k, epoch_++, pool_.get());
}

namespace {

/// What a round keeps of one node's dominating region: a few doubles, not
/// the polygon soup. Computed on the worker that built the region so the
/// cells can be freed immediately — this is what keeps a round's footprint
/// O(n) instead of O(n · region complexity).
struct NodeRound {
  Vec2 target{};
  double cheb_radius = 0.0;
  double hat_radius = 0.0;
  bool has_target = false;
};

}  // namespace

RoundMetrics Engine::step() {
  RoundMetrics m;
  m.round = ++round_;
  obs::ScopedSpan round_span("round", m.round);

  // Serial snapshot phase, then the embarrassingly parallel per-node phase.
  // Each slot of `rounds`/`stats` is written by exactly one index, so the
  // contents are independent of the chunk schedule; the reductions below
  // walk them in node order, making metrics bit-identical for every thread
  // count. Providers that query the network's spatial index warm it during
  // begin_round (and Network::grid() is safe under concurrent readers
  // regardless). The "grid_rebuild" span inside the providers covers the
  // index rebuild; this one covers the full snapshot.
  snapshot_round();
  const int n = net_->size();
  std::vector<NodeRound> rounds(static_cast<std::size_t>(n));
  std::vector<wsn::CommStats> stats(static_cast<std::size_t>(n));
  {
    obs::ScopedSpan s("region_fanout");
    common::parallel_for(pool_.get(), n, [&](int i) {
      RegionOutput out = provider_->compute(i);
      stats[static_cast<std::size_t>(i)] = out.comm;
      const DominatingRegion region(out.cells, net_->domain());
      NodeRound& r = rounds[static_cast<std::size_t>(i)];
      if (region.empty()) return;  // no feasible region: hold position
      const geom::Circle cheb = region.chebyshev();
      if (!cheb.valid()) return;
      r.target = cheb.center;
      r.cheb_radius = cheb.radius;
      r.hat_radius = region.max_dist_from(net_->position(i));
      r.has_target = true;
    });
  }

  {
    obs::ScopedSpan s("comm_gather");
    for (int i = 0; i < n; ++i)
      m.comm.merge(stats[static_cast<std::size_t>(i)]);
  }

  {
    obs::ScopedSpan s("targets");
    m.min_circumradius = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const NodeRound& r = rounds[static_cast<std::size_t>(i)];
      if (!r.has_target) continue;
      m.max_circumradius = std::max(m.max_circumradius, r.cheb_radius);
      m.min_circumradius = std::min(m.min_circumradius, r.cheb_radius);
      m.max_hat_radius = std::max(m.max_hat_radius, r.hat_radius);
    }
    if (m.min_circumradius == std::numeric_limits<double>::infinity())
      m.min_circumradius = 0.0;
  }

  // Synchronized position update (Algorithm 1 lines 4-6).
  obs::ScopedSpan move_span("movement");
  for (int i = 0; i < n; ++i) {
    const NodeRound& r = rounds[static_cast<std::size_t>(i)];
    if (!r.has_target) continue;
    const Vec2 ui = net_->position(i);
    const Vec2 ci = r.target;
    const double d = geom::dist(ui, ci);
    if (d <= cfg_.epsilon) continue;
    net_->set_position(i, ui + (ci - ui) * cfg_.alpha);
    // Convergence counts *actual* displacement: a node whose target sits
    // inside an obstacle is projected back and may be pinned in place —
    // that is a fixed point, not ongoing motion.
    const double actual = geom::dist(ui, net_->position(i));
    m.max_move = std::max(m.max_move, actual);
    if (actual > std::max(1e-6, 0.05 * cfg_.epsilon)) ++m.moved;
  }
  return m;
}

RunResult Engine::run() {
  RunResult result;
  while (round_ < cfg_.max_rounds) {
    RoundMetrics m = step();
    const bool done = (m.moved == 0);
    result.series.add(m);
    if (cfg_.on_round) cfg_.on_round(m);
    if (cfg_.retain_history) result.history.push_back(std::move(m));
    if (done) {
      result.converged = true;
      break;
    }
  }
  result.rounds = round_;
  finalize();
  result.load = wsn::load_report(*net_);
  result.final_max_range = result.load.max_range;
  result.final_min_range = result.load.min_range;
  return result;
}

void Engine::finalize() {
  snapshot_round();
  const int n = net_->size();
  // Same reduce-on-the-worker shape as step(): regions are distilled to one
  // double each and discarded; the serial pass only writes the ranges back.
  std::vector<double> ranges(static_cast<std::size_t>(n), 0.0);
  common::parallel_for(pool_.get(), n, [&](int i) {
    RegionOutput out = provider_->compute(i);
    const DominatingRegion region(out.cells, net_->domain());
    if (!region.empty())
      ranges[static_cast<std::size_t>(i)] =
          region.max_dist_from(net_->position(i));
  });
  for (int i = 0; i < n; ++i)
    net_->set_sensing_range(i, ranges[static_cast<std::size_t>(i)]);
}

DominatingRegion Engine::region_of(wsn::NodeId i) {
  // One snapshot, one node — not the full-network pass this used to be.
  snapshot_round();
  RegionOutput out = provider_->compute(i);
  return DominatingRegion(out.cells, net_->domain());
}

}  // namespace laacad::core
