// common::ThreadPool / parallel_for: block coverage, exception
// propagation, counter folding, nested-use rejection, and the 0/1/N
// worker-count contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/perf_counters.hpp"
#include "common/thread_pool.hpp"

namespace laacad::common {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  // n straddles the block count (16 blocks per thread: 64 at 4 threads)
  // and the one-index-per-block regime.
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (int n : {0, 1, 2, 63, 64, 65, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      pool.run(n, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
      for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
  std::atomic<int> sum{0};
  pool.run(1000, [&](int i) { sum += i; });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
}

TEST(ThreadPool, NegativeThreadCountRejected) {
  EXPECT_THROW(ThreadPool(-1), std::invalid_argument);
}

TEST(ThreadPool, PropagatesLowestChunkException) {
  // Multiple blocks throw; the rethrown exception must be the one from the
  // lowest-indexed block (deterministic regardless of timing). With 4
  // threads and n = 4 each block is a single index.
  ThreadPool pool(4);
  try {
    pool.run(4, [](int i) {
      if (i >= 2) throw std::runtime_error("chunk " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }
  // 1000 indices over 64 blocks: every block from the one holding 500 on
  // throws, and whichever thread claims it, that block stops at 500 first.
  try {
    pool.run(1000, [](int i) {
      if (i >= 500) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "500");
  }
}

TEST(ThreadPool, PoolRemainsUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run(8, [](int) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.run(8, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, NestedRunRejected) {
  // Every index tries, so the blocks claimed last are tried too: a thread
  // that has claimed any block is still inside the pool.
  ThreadPool pool(3);
  const int n = 1000;
  std::atomic<int> nested_threw{0};
  pool.run(n, [&](int) {
    try {
      pool.run(2, [](int) {});
    } catch (const std::logic_error&) {
      ++nested_threw;
    }
  });
  EXPECT_EQ(nested_threw.load(), n);
}

TEST(ThreadPool, CounterTotalsEqualTheSerialRun) {
  // Each index books i % 7 + 1 dist2 evaluations and one grid query; the
  // caller's block must read the serial totals for any pool size.
  const auto body = [](int i) {
    perf::counters().dist2_evals += static_cast<std::uint64_t>(i % 7 + 1);
    ++perf::counters().grid_queries;
  };
  const int n = 1000;
  const perf::KernelCounters before_serial = perf::counters();
  parallel_for(nullptr, n, body);
  const perf::KernelCounters serial = perf::counters().diff(before_serial);
  for (int threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    const perf::KernelCounters before = perf::counters();
    pool.run(n, body);
    const perf::KernelCounters pooled = perf::counters().diff(before);
    EXPECT_EQ(pooled.dist2_evals, serial.dist2_evals) << "threads=" << threads;
    EXPECT_EQ(pooled.grid_queries, serial.grid_queries)
        << "threads=" << threads;
  }
}

TEST(ParallelFor, NullPoolRunsSerially) {
  std::vector<int> order;
  parallel_for(nullptr, 5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, SingleThreadPoolMatchesSerialOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(&pool, 5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  // Index-addressed writes must land identically for every pool size.
  const int n = 257;
  std::vector<double> reference(static_cast<std::size_t>(n));
  parallel_for(nullptr, n,
               [&](int i) { reference[static_cast<std::size_t>(i)] =
                                static_cast<double>(i) * 1.5 + 1.0; });
  for (int threads : {2, 5, 8}) {
    ThreadPool pool(threads);
    std::vector<double> out(static_cast<std::size_t>(n));
    parallel_for(&pool, n, [&](int i) {
      out[static_cast<std::size_t>(i)] = static_cast<double>(i) * 1.5 + 1.0;
    });
    EXPECT_EQ(out, reference) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace laacad::common
