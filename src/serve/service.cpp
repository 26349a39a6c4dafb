#include "serve/service.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/trace.hpp"

namespace laacad::serve {

CoverageService::CoverageService(ServeConfig cfg)
    : world_(scenario::build_world(std::move(cfg.spec))),
      log_(cfg.log_path, world_.spec),
      heartbeat_(cfg.heartbeat),
      applied_nodes_(world_.net->size()),
      start_time_(std::chrono::steady_clock::now()) {
  if (!world_.spec.events.empty())
    throw std::runtime_error(
        "serve: the base spec must have an empty timeline — events arrive "
        "live and are logged as the daemon's own timeline");
  // Epoch 1: the initial deployment, sensing ranges not yet tuned.
  publish(/*finalized=*/false, /*converged=*/false);
}

CoverageService::~CoverageService() { stop(); }

void CoverageService::start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (started_) throw std::runtime_error("serve: start() called twice");
  started_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void CoverageService::stop() {
  std::lock_guard<std::mutex> stop_lk(stop_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    if (!started_) finished_ = true;
  }
  cv_events_.notify_all();
  cv_idle_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool CoverageService::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return started_ && !finished_;
}

std::uint64_t CoverageService::submit_event(scenario::Event ev) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_)
      throw std::runtime_error("service is stopping; event rejected");
    if (aborted_)
      throw std::runtime_error("service aborted (" + abort_reason_ +
                               "); event rejected");
    if (ev.type == scenario::EventType::kAddNodes) {
      if (applied_nodes_ + pending_arrivals_ + ev.count > scenario::kMaxNodes)
        throw std::runtime_error(
            "add_nodes count " + std::to_string(ev.count) + " on " +
            std::to_string(applied_nodes_) + " nodes and " +
            std::to_string(pending_arrivals_) +
            " queued arrivals is above kMaxNodes " +
            std::to_string(scenario::kMaxNodes));
      pending_arrivals_ += ev.count;
    }
    queue_.push_back(std::move(ev));
    id = ++events_accepted_;
  }
  cv_events_.notify_one();
  return id;
}

std::uint64_t CoverageService::submit_event_line(const std::string& body) {
  return submit_event(scenario::parse_event_body(body));
}

void CoverageService::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [&] {
    return finished_ || !started_ || (idle_ && queue_.empty());
  });
}

std::shared_ptr<const Snapshot> CoverageService::snapshot() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return snap_;
}

CoverageService::Stats CoverageService::stats() const {
  Stats s;
  const auto snap = snapshot();
  s.epoch = snap->meta().epoch;
  s.nodes = snap->size();
  s.queries = queries_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  s.global_round = global_round_;
  s.phases = phases_;
  s.converged = last_phase_converged_;
  s.aborted = aborted_;
  s.idle = idle_ && queue_.empty();
  s.events_accepted = events_accepted_;
  s.events_applied = events_applied_;
  s.events_rejected = events_rejected_;
  s.queue_depth = queue_.size();
  return s;
}

obs::Heartbeat CoverageService::health() const {
  const Stats s = stats();
  obs::Heartbeat hb;
  hb.kind = "serve";
  hb.name = world_.spec.name;
  hb.done = static_cast<int>(s.events_applied);
  hb.total = static_cast<int>(s.events_accepted);
  hb.ok = (s.converged && !s.aborted) ? 1 : 0;
  hb.live = s.nodes;
  hb.round = s.global_round;
  hb.epoch = static_cast<std::int64_t>(s.epoch);
  hb.queue = static_cast<int>(s.queue_depth);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  hb.rate_per_s = elapsed > 0.0 ? s.global_round / elapsed : 0.0;
  hb.eta_s = std::nan("");  // a daemon has no finish line
  hb.ts_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  return hb;
}

void CoverageService::count_query() {
  queries_.fetch_add(1, std::memory_order_relaxed);
}

void CoverageService::write_state(std::ostream& out) const {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (started_ && !finished_)
      throw std::runtime_error(
          "write_state requires a stopped service (state must be final)");
  }
  StateInfo info;
  info.name = world_.spec.name;
  info.total_rounds = global_round_;
  info.phases = phases_;
  info.events_applied = static_cast<int>(events_applied_);
  info.aborted = aborted_;
  info.grid_resolution = world_.spec.grid_resolution;
  info.k = world_.spec.k;
  write_network_state(out, *world_.net, info);
}

bool CoverageService::queue_nonempty() const {
  std::lock_guard<std::mutex> lk(mu_);
  return !queue_.empty();
}

void CoverageService::publish(bool finalized, bool converged) {
  Snapshot::Meta meta;
  {
    std::lock_guard<std::mutex> lk(mu_);
    meta.epoch = ++epoch_;
    meta.global_round = global_round_;
    meta.phase = phases_;
    meta.events_applied = static_cast<int>(events_applied_);
    meta.converged = converged;
    meta.aborted = aborted_;
    meta.finalized = finalized;
  }
  obs::ScopedSpan publish_span("publish",
                               static_cast<std::int64_t>(meta.epoch));
  const auto t0 = std::chrono::steady_clock::now();
  auto sp =
      std::make_shared<const Snapshot>(world_.domain(), *world_.net, meta);
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    snap_ = std::move(sp);
    last_publish_ = std::chrono::steady_clock::now();
  }
  const auto publish_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  publish_hist_.record(publish_ns);
}

double CoverageService::snapshot_age_s() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       last_publish_)
      .count();
}

int CoverageService::snapshot_staleness_rounds() const {
  const auto snap = snapshot();
  std::lock_guard<std::mutex> lk(mu_);
  return global_round_ - snap->meta().global_round;
}

void CoverageService::run_one_phase() {
  obs::ScopedSpan phase_span("phase", phases_);
  // A queued event interrupts the phase exactly where the batch runner's
  // round=N trigger would — run_loop's stamp makes replay take the same
  // branch. Engine::run finalizes once per phase, always: finalize advances
  // the provider epoch, so replay must hit the same finalize points to stay
  // bit-identical.
  const core::RunResult run = world_.engine->run(
      [this] { return queue_nonempty(); },
      [this](const core::RoundMetrics& m) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++global_round_;
        }
        if (m.moved == 0) return;  // converged: the phase-end publish follows
        // Mid-phase snapshot: current positions, the previous finalize's
        // sensing ranges.
        publish(/*finalized=*/false, /*converged=*/false);
        // Per-round beat: a supervisor watches a daemon the way it watches
        // campaign shards — rounds done, events applied, epoch, queue depth.
        if (heartbeat_) obs::write_heartbeat(stderr, health());
      });
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++phases_;
    last_phase_converged_ = run.converged;
  }
  publish(/*finalized=*/true, run.converged);
  if (heartbeat_) obs::write_heartbeat(stderr, health());
}

void CoverageService::run_loop() {
  run_one_phase();
  for (;;) {
    scenario::Event ev;
    {
      std::unique_lock<std::mutex> lk(mu_);
      idle_ = true;
      cv_idle_.notify_all();
      cv_events_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {  // stopping with nothing left to drain
        finished_ = true;
        cv_idle_.notify_all();
        return;
      }
      ev = std::move(queue_.front());
      queue_.pop_front();
      idle_ = false;
    }

    // Stamp with the round the world is actually at; the loop thread is the
    // only writer of global_round_.
    ev.trigger = scenario::Trigger::kAtRound;
    ev.round = global_round_;
    const int arrivals =
        ev.type == scenario::EventType::kAddNodes ? ev.count : 0;
    try {
      (void)scenario::apply_event(world_, ev,
                                  static_cast<int>(events_applied_),
                                  global_round_);
    } catch (const std::exception&) {
      // apply_event throws before touching the world or its RNG, so a
      // rejected event leaves replay untouched: not logged, not applied,
      // the loop stays parked at the same phase boundary (re-entering the
      // phase would add a spurious finalize that replay would not have).
      std::lock_guard<std::mutex> lk(mu_);
      ++events_rejected_;
      pending_arrivals_ -= arrivals;
      continue;
    }
    try {
      log_.append(ev);
    } catch (const std::exception&) {
      // The world changed but the log cannot record it: the replay
      // guarantee is broken, so stop serving loudly rather than drift.
      std::lock_guard<std::mutex> lk(mu_);
      aborted_ = true;
      abort_reason_ = "event log write failed";
      events_rejected_ += queue_.size();
      queue_.clear();
      finished_ = true;
      idle_ = true;
      cv_idle_.notify_all();
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++events_applied_;
      applied_nodes_ = world_.net->size();
      pending_arrivals_ -= arrivals;
    }

    if (std::string reason = scenario::below_k_reason(world_);
        !reason.empty()) {
      // Mirror the batch runner's abort: no further phase, no finalize.
      {
        std::lock_guard<std::mutex> lk(mu_);
        aborted_ = true;
        abort_reason_ = std::move(reason);
        events_rejected_ += queue_.size();
        queue_.clear();
      }
      publish(/*finalized=*/true, last_phase_converged_);
      if (heartbeat_) obs::write_heartbeat(stderr, health());
      std::lock_guard<std::mutex> lk(mu_);
      finished_ = true;
      idle_ = true;
      cv_idle_.notify_all();
      return;
    }

    world_.engine->begin_phase();
    run_one_phase();
  }
}

}  // namespace laacad::serve
