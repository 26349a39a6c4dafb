// Declarative query+churn workloads for the serving daemon — the `.wl`
// format replayed by serve_bench (bench/workloads/*.wl).
//
// Line-oriented like the scenario/campaign specs (the same common/specparse
// reader, the same "line N:" errors):
//
//   name        serve_mix          # workload name (artifact naming)
//   requests    2000               # scheduled query requests (fixed count)
//   rate        500                # offered rate, req/s; 0 = closed loop
//   connections 2                  # TCP connections, schedule round-robin
//   seed        7                  # derives every random draw below
//   knn_k       3                  # k passed on knn requests
//   mix         knn=6 coverage=2 load=1 stats=1   # verb weights
//   churn       every=250 fail_nodes count=2 pick=random
//   churn       every=600 add_nodes count=3 deploy=uniform
//
// `mix` weights pick each request's verb; query coordinates draw uniformly
// over the served domain's bounding box. Each `churn` line injects one
// event request after every `every`-th scheduled query (deterministic
// positions; the body is the scenario event vocabulary, validated at parse
// time via scenario::parse_event_body).
//
// The expanded schedule — verb per index, coordinates, churn injection
// points — is a pure function of the spec, so two runs of the same
// workload issue byte-identical request streams; only their timings
// differ. That is what lets serve_bench split its report into a
// deterministic section (counts, mix, config echo; byte-identical across
// runs and thread counts) and a timing section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace laacad::serve {

/// One churn cadence: inject `body` after every `every` scheduled queries.
struct ChurnSpec {
  int every = 0;
  std::string body;  ///< trigger-less event body ("fail_nodes count=2 ...")
};

struct WorkloadSpec {
  std::string name = "unnamed";
  int requests = 1000;
  double rate = 0.0;  ///< offered req/s; 0 = closed loop (back-to-back)
  int connections = 1;
  std::uint64_t seed = 1;
  int knn_k = 3;
  /// Verb weights, parallel to serve::Verb order for the query verbs
  /// (knn, coverage, load, stats, health). Default: knn-heavy.
  int mix_knn = 6, mix_coverage = 2, mix_load = 1, mix_stats = 1,
      mix_health = 0;
  std::vector<ChurnSpec> churn;
};

/// One scheduled request, fully determined by (spec, index).
struct ScheduledRequest {
  std::string op;    ///< "knn" | "coverage" | "load" | "stats" | "health"
                     ///< | "event"
  std::string line;  ///< the JSON request line to send (no newline)
};

WorkloadSpec parse_workload_string(const std::string& text);
WorkloadSpec load_workload_file(const std::string& path);

/// Echo the spec back in canonical `.wl` form, written from the parser's
/// key tables: parse(format(spec)) == spec field-for-field.
std::string format_workload(const WorkloadSpec& spec);

/// Expand the full deterministic request schedule: `spec.requests` queries
/// with verbs drawn from the mix and coordinates drawn over [0, side]²,
/// churn events interleaved at their cadences. The result depends only on
/// (spec, side).
std::vector<ScheduledRequest> expand_schedule(const WorkloadSpec& spec,
                                              double side);

}  // namespace laacad::serve
