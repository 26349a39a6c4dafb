#include "laacad/region_provider.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "voronoi/sites.hpp"

namespace laacad::core {

namespace {

// splitmix64-style mix of (seed, epoch, node) into one decorrelated stream
// id. Pure function of its inputs: the noise a node draws in a round does
// not depend on which thread computes it or what other nodes drew.
std::uint64_t node_stream(std::uint64_t seed, std::uint64_t epoch,
                          std::uint64_t node) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (epoch + 1) +
                    0xbf58476d1ce4e5b9ULL * (node + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

// ------------------------------------------------------------------ global

void GlobalRegionProvider::begin_round(const wsn::Network& net, int k,
                                       std::uint64_t /*epoch*/,
                                       common::ThreadPool* pool) {
  if (net.size() > kMaxSites) {
    throw std::invalid_argument(
        "GlobalRegionProvider: network size " + std::to_string(net.size()) +
        " exceeds the global snapshot cap of " + std::to_string(kMaxSites) +
        " nodes; use make_localized_provider() (backend \"localized\", or "
        "\"auto\", which picks it above "
        "LaacadConfig::provider_auto_threshold) at this scale");
  }
  k_ = k;
  sites_ = vor::separate_sites(net.positions());
  {
    obs::ScopedSpan span("grid_rebuild", net.size());
    grid_.rebuild(sites_, std::max(net.gamma(), 1.0), pool);
  }
  bbox_ = net.domain().bbox();
}

RegionOutput GlobalRegionProvider::compute(wsn::NodeId i) const {
  RegionOutput out;
  auto res = vor::compute_dominating_region(sites_, grid_, i, k_, bbox_);
  out.cells = std::move(res.cells);
  out.support_radius = res.rho + kSeparationSlack;
  return out;
}

// --------------------------------------------------------------- localized

LocalizedRegionProvider::LocalizedRegionProvider(LocalizedConfig cfg,
                                                 std::uint64_t seed)
    : cfg_(cfg), seed_(seed) {}

void LocalizedRegionProvider::begin_round(const wsn::Network& net,
                                          int k, std::uint64_t epoch,
                                          common::ThreadPool* pool) {
  k_ = k;
  epoch_ = epoch;
  // Warm the spatial index with the lent pool (bit-identical re-bin for any
  // thread count), then the connectivity snapshot the gathers run over (it
  // queries that index), then boundary verdicts over the snapshot's
  // adjacency. All three run on the pool: each writes only its own slots,
  // so every thread count yields the same snapshot.
  {
    obs::ScopedSpan span("grid_rebuild", net.size());
    net.warm_grid(pool);
  }
  {
    obs::ScopedSpan span("comm_build");
    comm_.emplace(net, pool);
  }
  obs::ScopedSpan span("boundaries");
  boundaries_ = wsn::detect_all_boundaries(*comm_, pool);
}

RegionOutput LocalizedRegionProvider::compute(wsn::NodeId i) const {
  RegionOutput out;
  // Seeding fills a generator's 312-word state; without noise nothing draws
  // from it, so hand over an idle per-thread one instead.
  static thread_local Rng idle;
  std::optional<Rng> noise;
  if (cfg_.range_noise > 0.0)
    noise.emplace(node_stream(seed_, epoch_, static_cast<std::uint64_t>(i)));
  auto res = localized_region(*comm_, i, k_,
                              boundaries_[static_cast<std::size_t>(i)], cfg_,
                              &out.comm, noise ? *noise : idle);
  out.cells = std::move(res.cells);
  // support_radius stays infinite: the noise is drawn per (epoch, node), so
  // no output is ever reusable in a later round.
  return out;
}

// ---------------------------------------------------------------- factories

std::shared_ptr<RegionProvider> make_global_provider() {
  return std::make_shared<GlobalRegionProvider>();
}

std::shared_ptr<RegionProvider> make_localized_provider(LocalizedConfig cfg,
                                                        std::uint64_t seed) {
  return std::make_shared<LocalizedRegionProvider>(cfg, seed);
}

}  // namespace laacad::core
