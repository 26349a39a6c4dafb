// Exact kernel-counter deltas — the read side of the observability layer.
//
// `common/perf_counters.hpp` stays the lock-free thread-local substrate the
// kernels increment (one add per event batch, Release-cheap).
// common::ThreadPool::run() captures each worker chunk's counter delta and
// folds it into the calling thread's block after the join (uint64 addition
// commutes, so the total is deterministic for any chunk schedule).
// CounterScope reads that calling-thread block as before/after snapshots,
// so dist²/clip/grid totals are exact for *any* num_threads.
//
// Stage timers live with the tracer (obs/trace.hpp): a stage total is just
// the per-name aggregation of its spans, returned by stop_trace().
#pragma once

#include "common/perf_counters.hpp"

namespace laacad::obs {

/// Snapshot-delta reader for the calling thread's kernel counters. With the
/// pool aggregation in common::ThreadPool, the delta over a region of code
/// equals the *global* event total of every parallel_for issued from this
/// thread in that region, plus its own serial work — exact for any thread
/// count, bit-equal to a serial run.
class CounterScope {
 public:
  CounterScope() : start_(perf::counters()) {}

  /// Events since construction (or the last reset()).
  perf::KernelCounters delta() const {
    return perf::counters().diff(start_);
  }

  void reset() { start_ = perf::counters(); }

 private:
  perf::KernelCounters start_;
};

}  // namespace laacad::obs
