// Open-loop load driver for the serving daemon — the engine behind
// examples/serve_bench.cpp and tests/test_serve_bench.cpp.
//
// Coordinated-omission safety: with a nonzero workload rate the driver
// sends on a fixed schedule (request i departs at start + i/rate,
// regardless of whether earlier responses have come back), and client
// latency is measured from the *scheduled* send time, not the actual
// one. A server that stalls for 100 ms therefore charges that stall to
// every request scheduled during it — the closed-loop bench mistake of
// politely waiting out the stall (and then reporting it as one slow
// request) cannot happen. rate = 0 falls back to an explicit closed
// loop (send, wait, send) where scheduled == actual by construction.
//
// The report separates a deterministic section (config echo, scheduled
// per-op counts, response/error tallies — byte-identical across runs of
// the same workload) from a timing section (wall clock, percentiles,
// histograms, server-side breakdown); see write_bench_report.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/histogram.hpp"
#include "serve/workload.hpp"

namespace laacad::serve {

/// Ops a workload can schedule, in report order.
inline constexpr std::array<const char*, 6> kBenchOps = {
    "knn", "coverage", "load", "stats", "health", "event"};

struct BenchVerbStats {
  std::uint64_t scheduled = 0;  ///< deterministic: from the expanded schedule
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;  ///< protocol errors: ok:false or malformed line
  obs::Histogram latency;    ///< recv - scheduled send (CO-safe client view)
  obs::Histogram service;    ///< recv - actual send (network + server only)
};

struct BenchResult {
  WorkloadSpec spec;
  double side = 0.0;
  std::array<BenchVerbStats, kBenchOps.size()> per_op;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t transport_errors = 0;  ///< connect/read/write failures
  double wall_s = 0.0;
  double achieved_rate_per_s = 0.0;
  /// The server's full `stats` response captured after the run drained —
  /// source of the server-side queue/query/serialize breakdown.
  std::string final_stats;
};

/// Replay `spec` against a daemon listening on 127.0.0.1:port over real
/// TCP. After the workload completes the driver drains the event queue,
/// captures a final `stats` response, then sends `shutdown` so the
/// server's serve() loop unblocks. Throws on connect failure; transport
/// errors mid-run are tallied, not thrown.
BenchResult run_bench(const WorkloadSpec& spec, double side, int port);

/// Write the BENCH_serve_latency.json document for `r` (indent 2).
void write_bench_report(const BenchResult& r, std::ostream& out);

}  // namespace laacad::serve
