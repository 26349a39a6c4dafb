// deploy_global / deploy_localized: Algorithm 1 redeployment timelines.
//
// A run solves seed-derived instances back to back until its time budget is
// spent, each through drive_world (ScenarioRunner's phase loop, call for
// call, timed from here). The golden check runs the real ScenarioRunner on
// a fixed instance and proves the drive reproduces its phase records.
#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "common/sysinfo.hpp"
#include "drive.hpp"
#include "scenario/runner.hpp"

namespace perfbench {

namespace {

using namespace laacad;

/// One instance. Both workloads deploy ~2 000 nodes per km².
scenario::ScenarioSpec deploy_spec(bool localized, bool tiny,
                                   std::uint64_t seed, int threads) {
  scenario::ScenarioSpec s;
  s.name = localized ? "deploy_localized" : "deploy_global";
  s.domain = "square";
  s.k = 2;
  s.seed = seed;
  s.num_threads = threads;
  if (!localized) {
    s.nodes = tiny ? 300 : 2000;
    s.epsilon = 2.0;
    s.max_rounds = 300;
    s.backend = "global";
    // Fail ~10 % at random, then add ~5 % in a gaussian cluster: three
    // redeploy + finalize + verify phases.
    s.events.push_back(scenario::parse_event_body(
        "fail_nodes count=" + std::to_string(s.nodes / 10) + " pick=random"));
    s.events.push_back(scenario::parse_event_body(
        "add_nodes count=" + std::to_string(s.nodes / 20) +
        " deploy=gaussian"));
  } else {
    // Above LaacadConfig::provider_auto_threshold (20 000 nodes) the "auto"
    // backend selects the localized Algorithm 2; the tiny instance forces it.
    s.nodes = tiny ? 1500 : 24000;
    s.epsilon = 5.0;
    s.max_rounds = 2;
    s.backend = tiny ? "localized" : "auto";
  }
  s.side = std::round(1000.0 * std::sqrt(s.nodes / 2000.0));
  return s;
}

/// The fixed tiny instance through the real ScenarioRunner at 1 and N
/// threads: identical JSON bytes, coverage verified, the digest printed for
/// run.py to compare with the recorded one, and drive_world reproducing the
/// runner's phase records.
void golden_check(const Options& opt, bool localized, Result& res) {
  scenario::ScenarioSpec spec = deploy_spec(localized, /*tiny=*/true, 1, 1);
  std::string json[2];
  scenario::ScenarioResult out;
  for (int t = 0; t < 2; ++t) {
    spec.num_threads = t == 0 ? 1 : opt.threads;
    scenario::ScenarioRunner runner(spec);
    out = runner.run();
    std::ostringstream s;
    out.write_json(s);
    json[t] = s.str();
  }
  const std::string& name = spec.name;
  res.gate(json[0] == json[1],
           name + " golden: ScenarioResult JSON differs between 1 and " +
               std::to_string(opt.threads) + " threads");
  res.gate(!out.aborted && out.final_coverage_ok,
           name + " golden: final coverage not verified");
  res.digest(name, fnv1a(json[0]));

  scenario::World w = scenario::build_world(spec);
  const Drive d = drive_world(w);
  bool mirror = d.phases.size() == out.phases.size();
  for (std::size_t i = 0; mirror && i < d.phases.size(); ++i) {
    const PhaseOut& p = d.phases[i];
    const scenario::PhaseRecord& r = out.phases[i];
    mirror = p.rounds == r.rounds && p.converged == r.converged &&
             p.nodes == r.nodes && p.rmax == r.final_max_range &&
             p.rmin == r.final_min_range &&
             p.min_depth == r.coverage_min_depth &&
             p.mean_depth == r.coverage_mean_depth &&
             p.components == r.components;
  }
  res.gate(mirror, name + " golden: the benchmark's drive diverges from "
                          "ScenarioRunner's phase records");
}

}  // namespace

void run_deploy(const Options& opt, bool localized, Result& res) {
  golden_check(opt, localized, res);
  const scenario::ScenarioSpec spec0 =
      deploy_spec(localized, opt.tiny, Rng::derive(opt.seed, 0), opt.threads);

  if (opt.trace) {
    const double overhead = report_engine_layers(opt, spec0, res);
    res.metric("obs.trace_overhead", overhead, "ratio");
    probe_common(opt.threads, res);
    report_serve_layers(opt, res);
    report_tiny_campaign_layers(opt, res);
    return;
  }

  // Set-up: spec -> built world (deployment, gamma, engine and its pool).
  const double setup_s = time_setup(opt.threads, localized ? 1 : 3, [&] {
    const scenario::World w = scenario::build_world(spec0);
  });

  // Each figure is the median over the run's instances of that instance's
  // figure, so a few seconds of contention on a shared machine move at most
  // a minority of the pieces.
  std::vector<double> solve_s, throughput, step_p50;
  const Clock::time_point budget = Clock::now();
  for (std::uint64_t j = 0;; ++j) {
    scenario::ScenarioSpec spec = spec0;
    spec.seed = Rng::derive(opt.seed, j);
    scenario::World w = scenario::build_world(spec);
    const Drive d = drive_world(w);
    const int failed = failed_phases(d, spec);
    res.count_ops(d.phases.size(), static_cast<std::uint64_t>(failed));
    res.gate(failed == 0 && d.phases.size() == spec.events.size() + 1,
             spec.name + " instance " + std::to_string(j) +
                 ": a phase was not verified");
    solve_s.push_back(d.solve_s);
    throughput.push_back(static_cast<double>(d.regions) / d.solve_s);
    step_p50.push_back(median(d.step_ms));
    if (seconds_since(budget) + d.solve_s > opt.seconds || j >= 63) break;
  }
  res.metric("setup_s", setup_s, "s");
  res.metric("solve_s", median(solve_s), "s");
  res.metric("throughput_per_s", median(throughput), "1/s");
  res.metric("p50_ms", median(step_p50), "ms");
  res.metric("peak_rss_mib",
             static_cast<double>(common::peak_rss_bytes()) / (1 << 20), "MiB");
}

}  // namespace perfbench
