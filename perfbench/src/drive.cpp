#include "drive.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>

#include "coverage/grid_checker.hpp"
#include "wsn/connectivity.hpp"
#include "wsn/energy.hpp"

namespace perfbench {

using namespace laacad;

Drive drive_world(scenario::World& w) {
  const scenario::ScenarioSpec& spec = w.spec;
  Drive d;
  int global_round = 0;
  std::size_t next_event = 0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const scenario::Event* pending =
        next_event < spec.events.size() ? &spec.events[next_event] : nullptr;
    PhaseOut p;
    while (w.engine->rounds_executed() < spec.max_rounds) {
      if (pending && pending->trigger == scenario::Trigger::kAtRound &&
          global_round >= pending->round)
        break;
      const Clock::time_point t0 = Clock::now();
      const core::RoundMetrics m = w.engine->step();
      d.step_ms.push_back(ms_since(t0));
      ++global_round;
      ++p.rounds;
      if (m.moved == 0) {
        p.converged = true;
        break;
      }
    }

    Clock::time_point t0 = Clock::now();
    w.engine->finalize();
    d.finalize_ms.push_back(ms_since(t0));

    t0 = Clock::now();
    p.nodes = w.net->size();
    p.rmin = std::numeric_limits<double>::infinity();
    for (const double r : w.net->sensing_ranges()) {
      p.rmax = std::max(p.rmax, r);
      p.rmin = std::min(p.rmin, r);
    }
    if (!std::isfinite(p.rmin)) p.rmin = 0.0;
    (void)wsn::load_report(*w.net);
    const cov::GridReport cov = cov::grid_coverage(
        w.domain(), cov::sensing_disks(*w.net), spec.grid_resolution,
        std::max(8, spec.k));
    p.min_depth = cov.min_depth;
    p.mean_depth = cov.mean_depth;
    p.components =
        p.rmax > 0.0
            ? wsn::analyze_connectivity(*w.net, 1.25 * p.rmax).components
            : w.net->size();
    d.verify_ms.push_back(ms_since(t0));
    d.regions += static_cast<std::uint64_t>(p.nodes) *
                 static_cast<std::uint64_t>(p.rounds + 1);
    d.phases.push_back(p);

    if (next_event >= spec.events.size()) break;
    const scenario::Event& ev = spec.events[next_event];
    if (ev.trigger == scenario::Trigger::kAtRound && global_round < ev.round)
      global_round = ev.round;
    t0 = Clock::now();
    (void)scenario::apply_event(w, ev, static_cast<int>(next_event),
                                global_round);
    d.apply_ms.push_back(ms_since(t0));
    ++next_event;
    if (w.net->size() < spec.k) break;  // the runner aborts here too
    w.engine->begin_phase();
  }
  d.solve_s = seconds_since(start);
  return d;
}

bool uses_localized(const scenario::ScenarioSpec& spec) {
  return spec.backend == "localized" ||
         (spec.backend == "auto" &&
          spec.nodes > core::LaacadConfig{}.provider_auto_threshold);
}

int failed_phases(const Drive& d, const scenario::ScenarioSpec& spec) {
  int failed = 0;
  for (const PhaseOut& p : d.phases)
    if (p.min_depth < spec.k || (!uses_localized(spec) && !p.converged))
      ++failed;
  return failed;
}

bool same_records(const Drive& a, const Drive& b) {
  if (a.phases.size() != b.phases.size()) return false;
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const PhaseOut& p = a.phases[i];
    const PhaseOut& q = b.phases[i];
    if (p.rounds != q.rounds || p.converged != q.converged ||
        p.nodes != q.nodes || p.rmax != q.rmax || p.rmin != q.rmin ||
        p.min_depth != q.min_depth || p.mean_depth != q.mean_depth ||
        p.components != q.components)
      return false;
  }
  return true;
}

double report_engine_layers(const Options& opt, scenario::ScenarioSpec spec,
                            Result& res) {
  spec.num_threads = opt.threads;
  std::vector<double> build_ms;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point t0 = Clock::now();
    const scenario::World w = scenario::build_world(spec);
    build_ms.push_back(ms_since(t0));
  }

  scenario::World plain = scenario::build_world(spec);
  const Drive base = drive_world(plain);
  scenario::World traced = scenario::build_world(spec);
  Drive drive;
  const Stages stages = with_timers([&] { drive = drive_world(traced); });
  stages.print(std::cerr, spec.name + " drive");
  scenario::ScenarioSpec serial_spec = spec;
  serial_spec.num_threads = 1;
  scenario::World serial = scenario::build_world(serial_spec);
  const Drive one = drive_world(serial);

  res.gate(same_records(base, drive) && same_records(base, one),
           spec.name + ": phase records differ across threads or tracing");
  const int failed = failed_phases(drive, spec);
  res.count_ops(drive.phases.size(), static_cast<std::uint64_t>(failed));
  res.gate(failed == 0, spec.name + ": a traced phase was not verified");

  FinalNetwork fin;
  fin.domain = &traced.domain();
  fin.net = traced.net.get();
  fin.k = spec.k;
  fin.localized = uses_localized(spec);
  fin.max_hops = spec.max_hops;
  fin.grid_resolution = spec.grid_resolution;
  const double serial_round_ms = probe_network_layers(fin, opt.threads, res);

  res.metric("laacad.step_ms", mean(drive.step_ms), "ms");
  res.metric("laacad.finalize_ms", mean(drive.finalize_ms), "ms");
  res.metric("laacad.verify_ms", mean(drive.verify_ms), "ms");
  res.metric("laacad.rounds", static_cast<double>(drive.step_ms.size()),
             "count");
  res.metric("laacad.speedup", one.solve_s / base.solve_s, "ratio");
  // Serial cost of one round's computes over the engine's fan-out wall:
  // 1.0 is perfect use of every thread.
  res.metric("laacad.fanout_efficiency",
             serial_round_ms /
                 (opt.threads * stages.quantile_ms("region_fanout", 0.5)),
             "ratio");
  res.metric("scenario.build_world_ms", median(build_ms), "ms");
  if (drive.apply_ms.empty()) {
    // A timeline without events (deploy_localized): time a balanced
    // fail + add pair on a freshly built world instead.
    scenario::World w = scenario::build_world(spec);
    for (const char* body : {"fail_nodes count=1 pick=random",
                             "add_nodes count=1 deploy=uniform"}) {
      const Clock::time_point t0 = Clock::now();
      (void)scenario::apply_event(w, scenario::parse_event_body(body), 0, 0);
      drive.apply_ms.push_back(ms_since(t0));
    }
  }
  res.metric("scenario.apply_event_ms", mean(drive.apply_ms), "ms");
  return drive.solve_s / base.solve_s - 1.0;
}

}  // namespace perfbench
