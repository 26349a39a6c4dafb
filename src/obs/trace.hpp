// Span tracer — Chrome trace-event / Perfetto-compatible timelines for the
// whole stack: engine round stages, scenario phases, campaign trials, fleet
// shard lifecycles.
//
// Design constraints (the observability contract):
//
//  * Disabled mode is the default and costs one relaxed atomic load and a
//    branch per span site — no allocation, no lock, no clock read. Every
//    instrumented hot path stays shippable in Release builds.
//  * Enabled mode appends to per-thread span buffers: a thread only ever
//    touches its own buffer, so span emission never serializes across pool
//    workers. Each buffer carries a mutex, but it is uncontended in steady
//    state (the owner is the only writer); it exists so the end-of-session
//    flush is provably race-free under ThreadSanitizer even if a stray
//    thread is still winding down.
//  * Deterministic fields are kept apart from wall-clock fields. A span's
//    *structure* — name (a string literal), nesting depth, optional integer
//    argument, per-thread emission order — is a pure function of the
//    computation and is what tests assert. Its timestamps (ts/dur,
//    microseconds since session start) are wall-clock and appear only in
//    the emitted JSON for humans and Perfetto.
//  * The tracer writes only to its own sink (the TRACE_*.json path given to
//    start_trace) — never into BENCH_* artifacts, whose byte-identity
//    across thread/worker/shard counts is the repo's core contract.
//
// Span names must be string literals (or otherwise outlive the session):
// the buffer stores the pointer, not a copy — that is what keeps the
// enabled fast path allocation-free until a buffer vector grows.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace laacad::obs {

namespace detail {
/// Bit 0: a trace session with a JSON sink is active. Bit 1: stage-timer
/// accumulation is active (scale_ladder's per-rung breakdown runs timers
/// without a trace file). Zero = fully disabled, the default.
extern std::atomic<unsigned> g_state;
void open_span(const char* name);
void close_span(const char* name, std::uint64_t t0_ns, std::int64_t arg,
                bool has_arg);
std::uint64_t now_ns();
}  // namespace detail

/// True when any sink (trace file or stage timers) is collecting.
inline bool enabled() {
  return detail::g_state.load(std::memory_order_relaxed) != 0;
}

/// RAII span: records [construction, destruction) as one complete event on
/// the calling thread. The optional integer argument is a deterministic
/// label (round number, trial id, shard index) and lands in the event's
/// args alongside the nesting depth. When the tracer is disabled both
/// constructor and destructor reduce to a load+branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, 0, false) {}
  ScopedSpan(const char* name, std::int64_t arg) : ScopedSpan(name, arg, true) {}
  ~ScopedSpan() {
    if (open_) detail::close_span(name_, t0_, arg_, has_arg_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Set the argument after the fact, for labels only known once the work
  /// inside the span has been counted (regions recomputed by a finalize).
  void set_arg(std::int64_t arg) {
    arg_ = arg;
    has_arg_ = true;
  }

 private:
  ScopedSpan(const char* name, std::int64_t arg, bool has_arg) {
    if (!enabled()) return;
    name_ = name;
    arg_ = arg;
    has_arg_ = has_arg;
    open_ = true;
    detail::open_span(name);
    t0_ = detail::now_ns();
  }

  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::int64_t arg_ = 0;
  bool has_arg_ = false;
  bool open_ = false;
};

/// Record a complete span from explicit steady-clock endpoints, for
/// lifecycles that do not fit a C++ scope (a fleet shard's spawn-to-reap
/// interval). Lands on the calling thread's buffer at its current depth.
/// No-op when disabled.
void emit_span(const char* name, std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1, std::int64_t arg);

/// One stage's accumulated wall-clock across a session: totals plus the
/// full duration distribution, so a report answers "p99 of the publish
/// stage" and not just "time spent publishing". The histogram accumulates
/// per thread (owner-thread writes only) and merges at stop_trace() —
/// merge order cannot change its state (see obs/histogram.hpp).
struct StageTotal {
  std::uint64_t count = 0;   ///< spans closed under this name
  std::uint64_t total_ns = 0;
  Histogram hist;            ///< distribution of span durations (ns)
};

/// What stop_trace() hands back: deterministic span structure plus the
/// wall-clock stage totals (for stdout breakdowns — never for BENCH files).
struct TraceReport {
  std::size_t spans = 0;    ///< events flushed (all threads)
  std::size_t threads = 0;  ///< thread buffers that emitted at least once
  /// Per-name totals, sorted by descending total_ns (ties by name).
  std::vector<std::pair<std::string, StageTotal>> stages;
};

/// Start collecting spans into a JSON trace written to `path` at
/// stop_trace(). Stage timers ride along. Throws std::runtime_error if a
/// session is already active (sessions never nest — one sink per process).
void start_trace(const std::string& path);

/// Start stage-timer accumulation only: spans are timed and totalled per
/// name but no per-event buffer grows and no file is written. Same
/// exclusivity rule as start_trace.
void start_timers();

/// True between start_trace()/start_timers() and stop_trace().
bool active();

/// Stop the session: disable collection, flush every thread buffer, write
/// the trace JSON (when the session had a path), and return the report.
/// Call after all instrumented parallel work has joined. Throws
/// std::runtime_error when the trace file cannot be written; returns an
/// empty report when no session is active.
TraceReport stop_trace();

}  // namespace laacad::obs
