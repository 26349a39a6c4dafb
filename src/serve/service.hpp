// CoverageService — the long-running heart of the serving daemon.
//
// Owns a scenario::World (network + engine + batteries + RNG) and runs the
// batch runner's phase structure on a background thread, driven by an
// asynchronous event queue instead of a spec timeline:
//
//   run phase (rounds until converged / cap / event queued; a snapshot is
//              published after every round that moves a node)
//   finalize → publish snapshot → wait for event
//   stamp event with the current global round → append to event log →
//   scenario::apply_event → begin_phase → next phase
//
// Both drivers run each phase through the one Engine::run loop, which
// polls their interruption predicate before every round: a queued event
// here, a due `round=N` trigger in the batch runner. Stamping each accepted
// event with the global round at acceptance therefore makes the event log
// a faithful `.scn` timeline: replaying it through ScenarioRunner
// re-executes the same rounds, the same finalize points (each finalize
// advances the provider epoch, so this matters), and the same RNG draws —
// reproducing served state bit-for-bit. Rejected events (invalid against the current domain,
// or arriving after stop/abort) consume no RNG and are never logged.
//
// Reads are wait-free with respect to the round loop: they run against the
// immutable epoch-swapped serve::Snapshot (see snapshot.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/heartbeat.hpp"
#include "obs/histogram.hpp"
#include "scenario/apply.hpp"
#include "serve/event_log.hpp"
#include "serve/latency.hpp"
#include "serve/snapshot.hpp"

namespace laacad::serve {

struct ServeConfig {
  /// Base configuration; its timeline must be empty (events arrive live).
  scenario::ScenarioSpec spec;
  /// Event-log path; empty disables logging (and the replay guarantee).
  std::string log_path;
  /// Emit `{"hb":"serve",...}` heartbeat lines to stderr after every round
  /// that moves a node and at every phase end (the /health schema,
  /// streamed).
  bool heartbeat = false;
};

class CoverageService {
 public:
  /// Builds the world (throws on a bad spec or an unwritable log path) and
  /// publishes epoch 1: the initial deployment, ranges untuned.
  explicit CoverageService(ServeConfig cfg);
  ~CoverageService();  ///< implies stop()

  CoverageService(const CoverageService&) = delete;
  CoverageService& operator=(const CoverageService&) = delete;

  /// Launch the background round loop. Call once.
  void start();

  /// Graceful shutdown: reject new events, drain the queue (each queued
  /// event still gets its full redeployment phase), finish the final phase
  /// to convergence or cap, and join. Idempotent. After stop() the final
  /// state is exactly what replaying the event log produces.
  void stop();

  bool running() const;

  /// Enqueue one churn event. Returns the acceptance id (1-based count).
  /// Throws std::runtime_error when the service is stopping/aborted, or on
  /// an add_nodes whose count, plus the node count after the last applied
  /// event, plus every queued add_nodes count, is above kMaxNodes (queued
  /// failures are not subtracted); a rejected event consumes no randomness
  /// and is never logged.
  std::uint64_t submit_event(scenario::Event ev);

  /// Parse an event body ("fail_nodes count=3 pick=random") and enqueue it.
  std::uint64_t submit_event_line(const std::string& body);

  /// Block until every accepted event has been applied and the round loop
  /// is idle at a phase boundary (or the service aborted/stopped). After
  /// drain() the published snapshot reflects all prior submissions —
  /// queries become deterministic, which tests and scripted sessions use.
  void drain();

  /// Current published snapshot; never null. Hold the shared_ptr as long
  /// as consistent multi-query reads are needed.
  std::shared_ptr<const Snapshot> snapshot() const;

  struct Stats {
    std::uint64_t epoch = 0;
    int global_round = 0;
    int phases = 0;
    int nodes = 0;
    bool converged = false;   ///< last completed phase converged
    bool aborted = false;
    bool idle = false;        ///< loop parked at a phase boundary
    std::uint64_t events_accepted = 0;
    std::uint64_t events_applied = 0;
    std::uint64_t events_rejected = 0;
    std::size_t queue_depth = 0;
    std::uint64_t queries = 0;
  };
  Stats stats() const;

  /// Health in the obs heartbeat schema (`hb` kind "serve"): done = events
  /// applied, total = events accepted, ok = 1 when the last phase
  /// converged and the service is not aborted, live = node count.
  obs::Heartbeat health() const;

  /// Count one read query (protocol layer calls this per request).
  void count_query();

  /// Per-verb request-latency histograms (protocol layer records; the
  /// `stats` verb reads). Lock-free on the record side.
  RequestLatency& request_latency() { return req_latency_; }
  const RequestLatency& request_latency() const { return req_latency_; }

  /// Distribution of publish() wall-clock (snapshot deep copy + swap).
  obs::Histogram publish_histogram() const { return publish_hist_.snapshot(); }

  /// Seconds since the current snapshot was published (wall-clock).
  double snapshot_age_s() const;

  /// Rounds the live world has advanced past the published snapshot — the
  /// deterministic staleness measure (0 right after a phase-end publish).
  int snapshot_staleness_rounds() const;

  const scenario::ScenarioSpec& spec() const { return world_.spec; }

  /// Dump the canonical state document (event_log.hpp's
  /// write_network_state) for replay comparison. Only valid once stopped.
  void write_state(std::ostream& out) const;

 private:
  void run_loop();
  void run_one_phase();
  bool queue_nonempty() const;
  /// Build + swap a snapshot from the live world (round-loop thread only).
  void publish(bool finalized, bool converged);

  scenario::World world_;
  EventLog log_;
  bool heartbeat_ = false;

  std::thread thread_;
  std::mutex stop_mu_;  ///< serializes stop() callers around the join
  mutable std::mutex mu_;
  std::condition_variable cv_events_;  ///< wakes the loop: submit/stop
  std::condition_variable cv_idle_;    ///< wakes drain()/stop() waiters
  std::deque<scenario::Event> queue_;
  bool started_ = false;
  bool stop_ = false;
  bool idle_ = false;      ///< loop parked at a phase boundary
  bool finished_ = false;  ///< loop exited
  bool aborted_ = false;
  std::string abort_reason_;
  bool last_phase_converged_ = false;
  int global_round_ = 0;
  int phases_ = 0;
  std::uint64_t events_accepted_ = 0;
  std::uint64_t events_applied_ = 0;
  std::uint64_t events_rejected_ = 0;
  int applied_nodes_ = 0;  ///< node count after the last applied event
  /// add_nodes counts accepted and not yet applied or refused at apply.
  long long pending_arrivals_ = 0;
  std::atomic<std::uint64_t> queries_{0};

  mutable std::mutex snap_mu_;
  std::shared_ptr<const Snapshot> snap_;
  std::uint64_t epoch_ = 0;
  std::chrono::steady_clock::time_point last_publish_;  ///< under snap_mu_

  RequestLatency req_latency_;
  obs::AtomicHistogram publish_hist_;

  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace laacad::serve
