#include "laacad/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/trace.hpp"
#include "wsn/spatial_grid.hpp"

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
  provider_ = cfg_.provider ? cfg_.provider : make_global_provider();
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
  cache_pos_.clear();
}

void Engine::snapshot_round() {
  provider_->begin_round(*net_, cfg_.k, epoch_++, pool_.get());
}

namespace {

bool same_bits(Vec2 a, Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) ==
             std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

}  // namespace

std::vector<int> Engine::dirty_nodes() const {
  obs::ScopedSpan span("dirty_scan");
  const std::vector<Vec2>& pos = net_->positions();
  const std::size_t n = pos.size();
  std::vector<int> dirty;
  if (cache_pos_.size() != n || cache_domain_ != &net_->domain()) {
    dirty.resize(n);
    std::iota(dirty.begin(), dirty.end(), 0);
    return dirty;
  }
  std::vector<int> moved;
  for (std::size_t i = 0; i < n; ++i)
    if (!same_bits(pos[i], cache_pos_[i]))
      moved.push_back(static_cast<int>(i));

  // One index over where the moved nodes were and where they are now, with
  // the mean finite support as its cell so a query scans a few cells.
  wsn::SpatialGrid ends;
  if (!moved.empty()) {
    std::vector<Vec2> pts;
    pts.reserve(2 * moved.size());
    for (const int j : moved) {
      pts.push_back(cache_pos_[static_cast<std::size_t>(j)]);
      pts.push_back(pos[static_cast<std::size_t>(j)]);
    }
    double sum = 0.0;
    int finite = 0;
    for (const NodeRound& r : cache_) {
      if (!std::isfinite(r.support)) continue;
      sum += r.support;
      ++finite;
    }
    ends.rebuild(pts, finite > 0 ? sum / finite : 1.0);
  }

  // Each node's test reads only positions and its own cache slot and
  // writes its own flag, so the flags, compacted in node order below, are
  // the same for every thread count and block schedule.
  std::vector<unsigned char> stale(n);
  common::parallel_for(pool_.get(), static_cast<int>(n), [&](int i) {
    const auto u = static_cast<std::size_t>(i);
    const double support = cache_[u].support;
    stale[u] = !std::isfinite(support) || !same_bits(pos[u], cache_pos_[u]) ||
               ends.any_within(pos[u], support);
  });
  for (std::size_t i = 0; i < n; ++i)
    if (stale[i]) dirty.push_back(static_cast<int>(i));
  return dirty;
}

void Engine::refresh(const std::vector<int>& dirty,
                     std::vector<wsn::CommStats>* comm) {
  const auto n = static_cast<std::size_t>(net_->size());
  cache_.resize(n);
  // Invalid until the pass completes: a compute() that throws must not
  // leave half-updated slots that look reusable.
  cache_pos_.clear();

  // Each dirty slot is written by exactly one index, so the cache contents
  // are independent of the block schedule. Providers that query the
  // network's spatial index warm it during begin_round (and
  // Network::grid() is safe under concurrent readers regardless).
  if (comm != nullptr) comm->assign(dirty.size(), wsn::CommStats{});
  const int count = static_cast<int>(dirty.size());
  common::parallel_for(pool_.get(), count, [&](int d) {
    const int i = dirty[static_cast<std::size_t>(d)];
    RegionOutput out = provider_->compute(i);
    if (comm != nullptr) (*comm)[static_cast<std::size_t>(d)] = out.comm;
    const DominatingRegion region(out.cells, net_->domain());
    NodeRound& r = cache_[static_cast<std::size_t>(i)];
    r = NodeRound{};
    r.support = out.support_radius;
    if (region.empty()) return;  // no feasible region: hold position
    r.hat_radius = region.max_dist_from(net_->position(i));
    // finalize() reads only radii; a target nobody can reuse is not worth
    // its Welzl pass there.
    if (comm == nullptr && !std::isfinite(out.support_radius)) return;
    const geom::Circle cheb = region.chebyshev();
    if (!cheb.valid()) return;
    r.target = cfg_.target ? cfg_.target(region, net_->position(i))
                           : cheb.center;
    r.cheb_radius = cheb.radius;
    r.has_target = true;
  });

  cache_domain_ = &net_->domain();
  if (std::any_of(cache_.begin(), cache_.end(), [](const NodeRound& r) {
        return std::isfinite(r.support);
      }))
    cache_pos_ = net_->positions();
}

RoundMetrics Engine::step() {
  RoundMetrics m;
  m.round = ++round_;
  obs::ScopedSpan round_span("round", m.round);

  // Serial snapshot phase, then the parallel per-node phase over the dirty
  // nodes; the reductions below walk the cache in node order, making
  // metrics bit-identical for every thread count. The "grid_rebuild" span
  // inside the providers covers the index rebuild.
  snapshot_round();
  const std::vector<int> dirty = dirty_nodes();
  std::vector<wsn::CommStats> stats;
  {
    obs::ScopedSpan s("region_fanout",
                      static_cast<std::int64_t>(dirty.size()));
    refresh(dirty, &stats);
  }

  {
    obs::ScopedSpan s("comm_gather");
    for (const wsn::CommStats& c : stats) m.comm.merge(c);
  }

  {
    obs::ScopedSpan s("targets");
    m.min_circumradius = std::numeric_limits<double>::infinity();
    for (const NodeRound& r : cache_) {
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
  for (int i = 0; i < net_->size(); ++i) {
    const NodeRound& r = cache_[static_cast<std::size_t>(i)];
    if (!r.has_target) continue;
    const Vec2 ui = net_->position(i);
    const Vec2 ci = r.target;
    if (geom::dist_le(ui, ci, cfg_.epsilon)) continue;
    net_->set_position(i, ui + (ci - ui) * cfg_.alpha);
    // Convergence counts *actual* displacement: a node whose target sits
    // inside an obstacle is projected back and may be pinned in place —
    // that is a fixed point, not ongoing motion.
    const double actual = geom::dist(ui, net_->position(i));
    m.max_move = std::max(m.max_move, actual);
    if (actual > std::max(1e-6, 0.05 * cfg_.epsilon)) ++m.moved;
  }
  release_unreusable_cache();
  return m;
}

RunResult Engine::run(
    const std::function<bool()>& interrupted,
    const std::function<void(const RoundMetrics&)>& on_round) {
  RunResult result;
  while (round_ < cfg_.max_rounds) {
    if (interrupted && interrupted()) break;
    const RoundMetrics m = step();
    result.series.add(m);
    if (on_round) on_round(m);
    if (m.moved == 0) {
      result.converged = true;
      break;
    }
  }
  result.rounds = round_;
  finalize();
  {
    obs::ScopedSpan span("load_report");
    result.load = wsn::load_report(*net_);
  }
  result.final_max_range = result.load.max_range;
  result.final_min_range = result.load.min_range;
  return result;
}

void Engine::finalize() {
  // The same pass as a round. After a converged round few nodes (often
  // none) moved, so this mostly writes back the round's own circumradii.
  obs::ScopedSpan span("finalize");
  const std::vector<int> dirty = dirty_nodes();
  span.set_arg(static_cast<std::int64_t>(dirty.size()));
  // With nothing dirty no region is computed, so the snapshot is skipped.
  // Every support is then finite, and such outputs cannot depend on the
  // epoch; it is still consumed so later rounds see the epochs a full
  // recompute would.
  if (dirty.empty())
    ++epoch_;
  else
    snapshot_round();
  refresh(dirty, nullptr);
  for (int i = 0; i < net_->size(); ++i)
    net_->set_sensing_range(i, cache_[static_cast<std::size_t>(i)].hat_radius);
  release_unreusable_cache();
}

void Engine::release_unreusable_cache() {
  if (cache_pos_.empty()) std::vector<NodeRound>().swap(cache_);
}

DominatingRegion Engine::region_of(wsn::NodeId i) {
  // One snapshot, one node — not the full-network pass this used to be.
  snapshot_round();
  RegionOutput out = provider_->compute(i);
  return DominatingRegion(out.cells, net_->domain());
}

}  // namespace laacad::core
