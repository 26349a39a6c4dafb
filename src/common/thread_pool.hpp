// Deterministic fixed-size thread pool for the per-round fan-out.
//
// LAACAD's rounds are bulk-synchronous: N independent per-node computations
// followed by a serial reduction, so a round lasts as long as its slowest
// thread. The pool therefore offers exactly one primitive — run(n, fn) —
// which cuts [0, n) into fixed contiguous blocks and blocks until every
// index has been processed. The block bounds are a pure function of
// (n, thread count); which thread runs a block is not: threads claim the
// next unclaimed block through one atomic cursor, so a thread that is
// preempted or handed expensive indices simply claims fewer blocks while
// the others finish the run. fn must therefore address its writes by
// index: callers that do get identical memory contents for every thread
// count (including 1) and every schedule.
//
// Observability: each participating thread captures the
// perf::KernelCounters delta of all the blocks it ran, and run() folds the
// worker deltas into the *calling* thread's counter block after the join.
// uint64 addition commutes, so the fold is deterministic for any block
// schedule — a caller that snapshots its own block around run() reads exact
// global event totals for any thread count, identical to a serial run. Each
// participating thread also emits one "pool_chunk" trace span whose
// argument is the number of blocks it ran, so an idle or starved thread
// shows in the trace.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/perf_counters.hpp"

namespace laacad::common {

class ThreadPool {
 public:
  /// run() cuts [0, n) into at most this many blocks per thread: enough
  /// that a slow thread's share is rebalanced onto the others, few enough
  /// that claiming (one atomic increment per block) stays negligible.
  static constexpr int kBlocksPerThread = 16;

  /// `num_threads` counts the calling thread: the pool spawns
  /// num_threads - 1 workers and the caller claims blocks of every run()
  /// itself. 0 means std::thread::hardware_concurrency(). Negative thread
  /// counts are rejected.
  explicit ThreadPool(int num_threads = 0);

  /// Joins all workers. Must not be called while a run() is in flight on
  /// another thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in run(), caller included (>= 1).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Invoke fn(i) for every i in [0, n). [0, n) is cut into
  /// min(n, kBlocksPerThread * size()) contiguous blocks, block b covering
  /// [b * n / blocks, (b + 1) * n / blocks), and the threads claim blocks
  /// on demand. Blocks until all blocks finish. If any invocation throws,
  /// its block stops there, and the exception from the lowest-indexed
  /// failing block is rethrown here after all blocks have completed
  /// (deterministic choice). Calling run() from inside a block — nested
  /// parallelism — throws std::logic_error without executing anything.
  void run(int n, const std::function<void(int)>& fn);

 private:
  void worker_loop(int worker_index);
  /// Claim and run blocks until none is left; `thread` indexes the
  /// caller (0) or a worker (>= 1) in counter_deltas_.
  void drain_blocks(int thread);

  std::vector<std::thread> workers_;

  // One job at a time; guarded by mutex_/cv_. `generation_` bumps per job so
  // sleeping workers can tell a fresh job from a spurious wake.
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::mutex run_mutex_;  ///< serializes concurrent run() callers
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
  int job_n_ = 0;
  int job_blocks_ = 0;
  int job_threads_ = 0;  ///< threads that claim blocks: min(size(), blocks)
  std::atomic<int> next_block_{0};
  int pending_ = 0;
  const std::function<void(int)>* job_fn_ = nullptr;
  std::vector<std::exception_ptr> errors_;  ///< one slot per block
  /// Per-thread KernelCounters deltas; slots >= 1 (the workers) are folded
  /// into the caller's thread-local block after the join. The caller's own
  /// blocks accrue there directly.
  std::vector<perf::KernelCounters> counter_deltas_;
};

/// Convenience: fn(i) for i in [0, n) on `pool`, or serially on the calling
/// thread when pool is null or single-threaded. This is the call sites'
/// entry point, so "no pool" and "pool of one" behave identically.
void parallel_for(ThreadPool* pool, int n, const std::function<void(int)>& fn);

}  // namespace laacad::common
