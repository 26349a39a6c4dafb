// Per-request-type latency accounting for the serving path.
//
// Every protocol request is attributed to a verb and split into three
// phases:
//
//   queue      — from the transport finishing the line read to the
//                dispatcher picking it up (head-of-line wait behind the
//                previous request on the same connection);
//   query      — parameter parsing plus the snapshot/service work that
//                computes the answer;
//   serialize  — rendering the response line.
//
// Recording goes into lock-free obs::AtomicHistogram buckets (relaxed
// increments — connection threads never serialize on each other here), and
// the `stats` protocol verb snapshots them into the per-verb percentile
// breakdown a load generator reads back. All values are wall-clock and
// must never enter byte-identical BENCH_* artifacts; serve_bench keeps
// them strictly inside its "timing" subtree.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/histogram.hpp"

namespace laacad {
class JsonWriter;
}

namespace laacad::serve {

enum class Verb {
  kKnn = 0,
  kCoverage,
  kLoad,
  kStats,
  kHealth,
  kEvent,
  kDrain,
  kOther,  ///< malformed / unknown ops (still timed: errors have latency)
};
inline constexpr int kNumVerbs = 8;

/// Map a request's "op" value to its verb (unknown -> kOther).
Verb verb_from_op(std::string_view op);

/// One request's phase durations, nanoseconds.
struct PhaseDurations {
  std::uint64_t queue_ns = 0;
  std::uint64_t query_ns = 0;
  std::uint64_t serialize_ns = 0;
  std::uint64_t total_ns = 0;  ///< queue + dispatch; >= sum of the phases
};

/// The daemon's per-verb histogram set. One instance per CoverageService;
/// record() is safe from any number of transport threads concurrently.
class RequestLatency {
 public:
  void record(Verb v, const PhaseDurations& d);

  /// Requests recorded under `v` so far.
  std::uint64_t count(Verb v) const;

  /// Frozen copies for one verb (total + the three phases).
  struct VerbSnapshot {
    obs::Histogram total, queue, query, serialize;
  };
  VerbSnapshot snapshot(Verb v) const;

  /// The `stats` verb's "latency" object: verbs with at least one request,
  /// in enum order, each as {"total":{percentiles},"queue":{...},
  /// "query":{...},"serialize":{...}} (see
  /// obs::Histogram::write_percentiles_json for the block schema).
  void write_stats_json(JsonWriter& w) const;

 private:
  struct PerVerb {
    obs::AtomicHistogram total, queue, query, serialize;
  };
  PerVerb verbs_[kNumVerbs];
};

}  // namespace laacad::serve
