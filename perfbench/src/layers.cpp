// Per-layer probes: each layer's public calls timed from the benchmark on
// the network a workload ended with. Networks above kMaxProbeNodes are
// probed on an evenly strided node sample so a probe stays seconds long.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "coverage/grid_checker.hpp"
#include "laacad/region_provider.hpp"
#include "obs/metrics.hpp"
#include "serve/snapshot.hpp"
#include "voronoi/orderk.hpp"
#include "voronoi/sites.hpp"
#include "wsn/boundary.hpp"
#include "wsn/comm.hpp"
#include "wsn/connectivity.hpp"
#include "wsn/energy.hpp"
#include "wsn/spatial_grid.hpp"

namespace perfbench {

namespace {

using namespace laacad;

constexpr int kMaxProbeNodes = 2000;

/// Median wall time of `reps` calls of fn, in ms.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(ms_since(t0));
  }
  return median(t);
}

}  // namespace

double probe_network_layers(const FinalNetwork& fin, int threads,
                            Result& res) {
  const wsn::Network& live = *fin.net;
  const wsn::Domain& domain = *fin.domain;
  const int n = live.size();
  const int stride = std::max(1, (n + kMaxProbeNodes - 1) / kMaxProbeNodes);
  std::vector<int> sample;
  for (int i = 0; i < n; i += stride) sample.push_back(i);
  const double cell = std::max(live.gamma(), 1.0);
  const bool large = n > 5000;

  // voronoi: the order-k kernel against a shared grid over the snapshot.
  {
    const std::vector<geom::Vec2> sites = vor::separate_sites(live.positions());
    wsn::SpatialGrid grid;
    grid.rebuild(sites, cell);
    const geom::Ring window = geom::box_ring(domain.bbox());
    std::vector<double> region_us;
    perf::KernelCounters total;
    std::size_t cells = 0;
    for (const int i : sample) {
      const obs::CounterScope scope;
      const Clock::time_point t0 = Clock::now();
      const auto region = vor::dominating_region_cells(sites, grid, i, fin.k, window);
      region_us.push_back(us_since(t0));
      total.add(scope.delta());
      cells += region.size();
    }
    const double regions = static_cast<double>(sample.size());
    res.metric("voronoi.region_us_p50", quantile(region_us, 0.5), "us");
    res.metric("voronoi.region_us_p99", quantile(region_us, 0.99), "us");
    res.metric("voronoi.dist2_per_region",
               static_cast<double>(total.dist2_evals) / regions, "count");
    res.metric("voronoi.clips_per_region",
               static_cast<double>(total.clip_calls) / regions, "count");
    res.metric("voronoi.cells_per_region", static_cast<double>(cells) / regions,
               "count");
    res.metric("voronoi.fallbacks", static_cast<double>(total.kernel_fallbacks),
               "count");
  }

  // laacad: the workload's provider on a private copy of the network
  // (begin_round stamps boundary flags).
  wsn::Network copy(&domain, live.positions(), live.gamma());
  for (int i = 0; i < n; ++i)
    copy.set_sensing_range(i, live.sensing_ranges()[static_cast<std::size_t>(i)]);
  double serial_round_ms = 0.0;
  {
    core::LocalizedConfig lc;
    lc.max_hops = fin.max_hops;
    const std::shared_ptr<core::RegionProvider> provider =
        fin.localized ? core::make_localized_provider(lc, 1)
                      : core::make_global_provider();
    std::unique_ptr<common::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<common::ThreadPool>(threads);
    std::uint64_t epoch = 0;
    res.metric("laacad.begin_round_ms", median_ms(3, [&] {
                 provider->begin_round(copy, fin.k, epoch++, pool.get());
               }),
               "ms");
    std::vector<double> compute_us;
    for (const int i : sample) {
      const Clock::time_point t0 = Clock::now();
      const core::RegionOutput out = provider->compute(i);
      compute_us.push_back(us_since(t0));
    }
    res.metric("laacad.compute_us_p50", quantile(compute_us, 0.5), "us");
    res.metric("laacad.compute_us_p99", quantile(compute_us, 0.99), "us");
    serial_round_ms = mean(compute_us) * n / 1e3;
  }

  // wsn: connectivity model, boundary service, gathers, spatial index.
  res.metric("wsn.comm_build_ms",
             median_ms(3, [&] { const wsn::CommModel comm(copy); }), "ms");
  res.metric("wsn.boundaries_ms",
             median_ms(3, [&] { (void)wsn::detect_all_boundaries(copy); }),
             "ms");
  {
    const wsn::CommModel comm(copy);
    wsn::CommStats stats;
    std::vector<double> gather_us;
    for (const int i : sample) {
      const Clock::time_point t0 = Clock::now();
      (void)comm.gather(i, 2.0 * live.gamma(), -1, &stats);
      gather_us.push_back(us_since(t0));
    }
    res.metric("wsn.gather_us", quantile(gather_us, 0.5), "us");
    res.metric("wsn.messages_per_node",
               static_cast<double>(stats.node_reports) /
                   static_cast<double>(sample.size()),
               "count");
  }
  {
    const std::vector<geom::Vec2> pos = live.positions();
    wsn::SpatialGrid grid;
    grid.rebuild(pos, cell);
    res.metric("wsn.grid_rebuild_ms",
               median_ms(5, [&] { grid.rebuild(pos, cell); }), "ms");
    Rng rng(7);
    const geom::BBox box = domain.bbox();
    constexpr int kQueries = 20000;
    std::vector<geom::Vec2> qs;
    for (int q = 0; q < kQueries; ++q)
      qs.push_back({rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y)});
    std::size_t found = 0;
    const Clock::time_point t0 = Clock::now();
    for (const geom::Vec2& q : qs) found += grid.k_nearest(q, 3).size();
    res.metric("wsn.knn_us", us_since(t0) / kQueries, "us");
    res.gate(found == static_cast<std::size_t>(kQueries) *
                          static_cast<std::size_t>(std::min(3, n)),
             "wsn probe: k_nearest returned short answers");
  }
  double rmax = 0.0;
  for (const double r : live.sensing_ranges()) rmax = std::max(rmax, r);
  res.metric("wsn.connectivity_ms", median_ms(3, [&] {
               (void)wsn::analyze_connectivity(live, 1.25 * rmax);
             }),
             "ms");
  res.metric("wsn.load_report_ms",
             median_ms(5, [&] { (void)wsn::load_report(live); }), "ms");

  res.metric("coverage.grid_coverage_ms", median_ms(large ? 1 : 3, [&] {
               (void)cov::grid_coverage(domain, cov::sensing_disks(live),
                                        fin.grid_resolution,
                                        std::max(8, fin.k));
             }),
             "ms");

  res.metric("serve.publish_us", 1e3 * median_ms(large ? 2 : 5, [&] {
               const serve::Snapshot snap(domain, live, serve::Snapshot::Meta{});
             }),
             "us");
  return serial_round_ms;
}

void probe_common(int threads, Result& res) {
  // A fixed mixed-magnitude corpus: integers, fractions, tiny and huge
  // magnitudes, negatives — what the serving and artifact writers format.
  Rng rng(2012);
  std::vector<double> corpus;
  for (int i = 0; i < 20000; ++i) {
    const double mant = rng.uniform(-1.0, 1.0);
    const int exp10 = rng.uniform_int(-12, 12);
    switch (i % 4) {
      case 0: corpus.push_back(std::round(mant * 1e6)); break;
      case 1: corpus.push_back(mant * 1000.0); break;
      default: corpus.push_back(mant * std::pow(10.0, exp10)); break;
    }
  }
  std::vector<double> ns;
  for (int r = 0; r < 3; ++r) {
    std::ostringstream out;
    JsonWriter w(out, /*indent=*/0);
    const Clock::time_point t0 = Clock::now();
    w.begin_array();
    for (const double v : corpus) w.value(v);
    w.end_array();
    ns.push_back(1e9 * seconds_since(t0) / static_cast<double>(corpus.size()));
  }
  res.metric("common.json_double_ns", median(ns), "ns");

  common::ThreadPool pool(threads);
  constexpr int kCalls = 2000;
  const Clock::time_point t0 = Clock::now();
  for (int c = 0; c < kCalls; ++c)
    common::parallel_for(&pool, 4 * threads, [](int) {});
  res.metric("common.parallel_for_us", us_since(t0) / kCalls, "us");
}

}  // namespace perfbench
