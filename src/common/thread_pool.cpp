#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "obs/trace.hpp"

namespace laacad::common {

namespace {
// Set while the current thread is running blocks; run() refuses to nest.
thread_local bool tls_in_chunk = false;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 0)
    throw std::invalid_argument("ThreadPool: negative thread count");
  if (num_threads == 0) {
    num_threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int w = 1; w < num_threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain_blocks(int thread) {
  // Bracket the whole claim loop with a counter snapshot so run() can fold
  // worker deltas into the caller's block — events of a block that throws
  // count too (they really happened).
  const perf::KernelCounters before = perf::counters();
  obs::ScopedSpan span("pool_chunk");
  const long long n = job_n_, blocks = job_blocks_;
  std::int64_t ran = 0;
  tls_in_chunk = true;
  for (int b = next_block_.fetch_add(1, std::memory_order_relaxed);
       b < job_blocks_;
       b = next_block_.fetch_add(1, std::memory_order_relaxed), ++ran) {
    // Block b covers [b*n/blocks, (b+1)*n/blocks): a static cut that
    // depends only on (n, blocks), never on which thread claimed it.
    const int begin = static_cast<int>(b * n / blocks);
    const int end = static_cast<int>((b + 1) * n / blocks);
    try {
      for (int i = begin; i < end; ++i) (*job_fn_)(i);
    } catch (...) {
      // One slot per block, written only by its claimant; read after the
      // join.
      errors_[static_cast<std::size_t>(b)] = std::current_exception();
    }
  }
  tls_in_chunk = false;
  span.set_arg(ran);
  counter_deltas_[static_cast<std::size_t>(thread)] =
      perf::counters().diff(before);
}

void ThreadPool::worker_loop(int worker_index) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_start_.wait(lk, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
    }
    // With fewer blocks than threads the surplus workers sit this job out
    // but still report in.
    if (worker_index < job_threads_) drain_blocks(worker_index);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (tls_in_chunk)
    throw std::logic_error("ThreadPool::run: nested use from inside a block");
  std::lock_guard<std::mutex> serial(run_mutex_);

  const int blocks = std::min(n, kBlocksPerThread * size());
  const int threads = std::min(size(), blocks);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    job_n_ = n;
    job_blocks_ = blocks;
    job_threads_ = threads;
    next_block_.store(0, std::memory_order_relaxed);
    job_fn_ = &fn;
    errors_.assign(static_cast<std::size_t>(blocks), nullptr);
    counter_deltas_.assign(static_cast<std::size_t>(threads),
                           perf::KernelCounters{});
    pending_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();

  drain_blocks(0);

  {
    std::unique_lock<std::mutex> lk(mutex_);
    cv_done_.wait(lk, [&] { return pending_ == 0; });
    job_fn_ = nullptr;
  }
  // Fold the workers' counter deltas into this (the calling) thread's
  // block. The caller's own blocks already accrued in place. The fold order
  // is fixed but irrelevant: uint64 sums commute, so totals are bit-equal
  // to a serial run for every thread count and block schedule.
  for (std::size_t t = 1; t < counter_deltas_.size(); ++t)
    perf::counters().add(counter_deltas_[t]);
  for (std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

void parallel_for(ThreadPool* pool, int n,
                  const std::function<void(int)>& fn) {
  // The serial path runs even inside another pool's block: a plain loop
  // cannot deadlock or reorder anything, and outer-parallel/inner-serial is
  // exactly how trial-level parallelism (campaign workers running serial
  // engines) composes. Only a *pool* inside a block is rejected, by
  // ThreadPool::run itself.
  if (pool == nullptr || pool->size() <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->run(n, fn);
}

}  // namespace laacad::common
