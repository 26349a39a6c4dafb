// perfbench — the repository's performance ledger.
//
// One binary runs one named workload through the library's public entry
// points, times it from the outside, checks that its output is correct, and
// prints one JSON result line (see Result). perfbench/run.py builds it,
// validates that line against BENCHMARK.json and the recorded golden
// digests, and re-prints it for whoever is collecting. perfbench/README.md
// lists every metric, the layer it belongs to, and why each workload exists.
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) report the per-layer metrics: every call into a layer is
// timed here, in the benchmark's own files, and the stage totals of the
// spans the library already emits are folded in through obs timers. No
// span is added inside src/.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace laacad::wsn {
class Domain;
class Network;
}  // namespace laacad::wsn

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }
inline double us_since(Clock::time_point t0) { return 1e6 * seconds_since(t0); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of one run
  bool trace = false;
  bool tiny = false;      ///< self-test sizes: every workload in seconds
  std::string data_dir;   ///< the perfbench/ directory (inputs/ lives there)
  int threads = 1;        ///< nproc: engine threads, campaign workers
  /// campaign_matrix only: verify every pool campaign and print its digest
  /// (run.py --record-golden), instead of measuring.
  bool record_pool = false;
};

/// Pins the calling thread to one core while alive (threads it starts
/// inherit the mask) and restores the previous mask on destruction. A no-op
/// where thread affinity is unavailable.
class CorePin {
 public:
  explicit CorePin(int core);
  ~CorePin();
  CorePin(const CorePin&) = delete;
  CorePin& operator=(const CorePin&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// Set-up time in seconds per call of fn. Each of kSetupRounds rounds,
/// spaced kSetupGap apart, times `reps` calls on each of `cores` cores in
/// turn and takes the mean per call; the result is the median over rounds.
/// On a shared VM a core's speed flips between two levels ~50 % apart every
/// few hundred ms, differently per core: a median over samples taken in one
/// burst landed in either level from run to run, while a round's mean over
/// every core, repeated across a few seconds, averages the levels out.
inline constexpr int kSetupRounds = 30;
inline constexpr std::chrono::milliseconds kSetupGap{50};

template <typename Fn>
double time_setup(int cores, int reps, Fn&& fn) {
  std::vector<double> rounds;
  for (int round = 0; round < kSetupRounds; ++round) {
    std::this_thread::sleep_for(kSetupGap);
    double total = 0.0;
    for (int c = 0; c < cores; ++c) {
      const CorePin pin(c);
      const Clock::time_point t0 = Clock::now();
      for (int r = 0; r < reps; ++r) fn();
      total += seconds_since(t0);
    }
    rounds.push_back(total / (cores * reps));
  }
  return median(std::move(rounds));
}

/// FNV-1a over bytes; chains through `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ull);

/// Everything one invocation reports.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A failing gate makes the run incorrect and is named on stderr.
  void gate(bool ok, const std::string& what);
  void count_ops(std::uint64_t attempted, std::uint64_t failed);
  /// Golden digests go to stdout as "digest <name> <hex>" lines; run.py
  /// compares them with perfbench/golden.json.
  void digest(const std::string& name, std::uint64_t value);

  bool correct() const { return correct_; }
  /// The result line: {"correct","attempted","failed","metrics"}.
  void print(std::ostream& out) const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Stage totals of one obs timer session (the library's own spans), also
/// printed to stderr as a human-readable breakdown.
class Stages {
 public:
  explicit Stages(const laacad::obs::TraceReport& report);
  double total_ms(const std::string& name) const;
  /// Quantile of one stage's span durations, in ms.
  double quantile_ms(const std::string& name, double q) const;
  void print(std::ostream& out, const std::string& title) const;

 private:
  std::map<std::string, laacad::obs::StageTotal> by_name_;
};

/// Runs `fn` under an obs timer session and returns its stage totals.
template <typename Fn>
Stages with_timers(Fn&& fn) {
  laacad::obs::start_timers();
  fn();
  return Stages(laacad::obs::stop_trace());
}

// ------------------------------------------------------------- workloads --
void run_deploy(const Options& opt, bool localized, Result& res);
void run_campaign(const Options& opt, Result& res);

// ---------------------------------------------------------- layer probes --
/// The network a workload ended with, described for the probes.
struct FinalNetwork {
  const laacad::wsn::Domain* domain = nullptr;
  const laacad::wsn::Network* net = nullptr;
  int k = 1;
  bool localized = false;  ///< the backend the workload's engine used
  int max_hops = 10;
  double grid_resolution = 5.0;
};

/// voronoi.*, laacad.begin_round_ms / compute_us_*, wsn.*, coverage.*,
/// serve.publish_us — each layer's public calls timed on `fin`. Returns the
/// estimated serial compute time of one full round (ms), the numerator of
/// laacad.fanout_efficiency.
double probe_network_layers(const FinalNetwork& fin, int threads,
                            Result& res);

/// common.json_double_ns and common.parallel_for_us.
void probe_common(int threads, Result& res);

/// serve.* from the serving-layer probe (serve.cpp), in every traced run.
void report_serve_layers(const Options& opt, Result& res);

/// campaign.* of a workload that is not campaign_matrix: the tiny
/// campaign_matrix (one trial per scenario) under obs timers.
void report_tiny_campaign_layers(const Options& opt, Result& res);

}  // namespace perfbench
