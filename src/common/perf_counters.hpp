// Thread-local event counters for the geometric hot path.
//
// The order-k kernel's cost model is "how many site-distance evaluations and
// ring allocations does one region computation spend" — wall-clock alone
// cannot distinguish a tighter candidate bound from a faster allocator, and
// the 2x-style kernel claims in BENCH artifacts need a deterministic metric
// that is identical across machines. Counters are plain thread-local
// integers (one add per event batch, no atomics, no locks), cheap enough to
// stay compiled in for Release builds; bench_micro_kernels resets them
// around timed sections and reports the totals as benchmark counters, and
// tests assert reduction ratios on fixed configurations.
//
// Threading: each thread owns an independent block, so the counts a kernel
// call produces land on the calling thread. common::ThreadPool::run()
// closes the fan-out gap: it snapshots each worker chunk's block around the
// chunk and folds the deltas into the *calling* thread's block after the
// join (uint64 addition commutes, so the fold is deterministic for any
// chunk schedule). A caller that brackets a parallel_for with snapshots of
// its own block therefore reads exact global totals for any thread count —
// see obs::CounterScope for the snapshot-delta reader.
#pragma once

#include <cstdint>

namespace laacad::perf {

struct KernelCounters {
  std::uint64_t dist2_evals = 0;   ///< point-to-site distance evaluations
  std::uint64_t clip_calls = 0;    ///< half-plane clip passes over a ring
  std::uint64_t ring_allocs = 0;   ///< clips that allocated / grew a ring
  std::uint64_t grid_queries = 0;  ///< SpatialGrid within / k_nearest / collect
  std::uint64_t cells_built = 0;   ///< order-k cells constructed by the BFS
  std::uint64_t kernel_fallbacks = 0;  ///< grid kernel exhausted every site
  std::uint64_t exact_fallbacks = 0;   ///< filtered predicate fell back to hypot
  std::uint64_t bisector_scans = 0;    ///< geom::bisector_side ring scans

  void reset() { *this = KernelCounters{}; }

  /// Fold another block (typically a worker chunk's delta) into this one.
  void add(const KernelCounters& o) {
    dist2_evals += o.dist2_evals;
    clip_calls += o.clip_calls;
    ring_allocs += o.ring_allocs;
    grid_queries += o.grid_queries;
    cells_built += o.cells_built;
    kernel_fallbacks += o.kernel_fallbacks;
    exact_fallbacks += o.exact_fallbacks;
    bisector_scans += o.bisector_scans;
  }

  /// Field-wise difference against an earlier snapshot of the same block.
  /// Counters are monotonic between resets, so this is the event count in
  /// the bracketed region.
  KernelCounters diff(const KernelCounters& before) const {
    KernelCounters d;
    d.dist2_evals = dist2_evals - before.dist2_evals;
    d.clip_calls = clip_calls - before.clip_calls;
    d.ring_allocs = ring_allocs - before.ring_allocs;
    d.grid_queries = grid_queries - before.grid_queries;
    d.cells_built = cells_built - before.cells_built;
    d.kernel_fallbacks = kernel_fallbacks - before.kernel_fallbacks;
    d.exact_fallbacks = exact_fallbacks - before.exact_fallbacks;
    d.bisector_scans = bisector_scans - before.bisector_scans;
    return d;
  }
};

/// The calling thread's counter block.
inline KernelCounters& counters() {
  thread_local KernelCounters tls;
  return tls;
}

}  // namespace laacad::perf
