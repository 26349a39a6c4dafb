#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "campaign/trial.hpp"
#include "common/rng.hpp"

namespace laacad::campaign {
namespace {

// ------------------------------------------------------------- parsing ----

TEST(CampaignSpec, ParsesKeysOverridesAndSweeps) {
  const CampaignSpec spec = parse_campaign_string(R"(
# comment
name     demo
trials   3
seed     99
domain   lshape     # trailing comment
side     240
nodes    30
k        2
epsilon  0.25

sweep alpha 0.5 1.0
sweep nodes 20 30 40
)");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.trials, 3);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.base.domain, "lshape");
  EXPECT_DOUBLE_EQ(spec.base.side, 240.0);
  EXPECT_EQ(spec.base.nodes, 30);
  EXPECT_EQ(spec.base.k, 2);
  // Explicit physical keys are recorded for scenario-file overriding too.
  ASSERT_EQ(spec.base_overrides.size(), 5u);  // domain side nodes k epsilon
  EXPECT_EQ(spec.base_overrides[0],
            (std::pair<std::string, std::string>{"domain", "lshape"}));
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].key, "alpha");
  EXPECT_EQ(spec.axes[0].values, (std::vector<std::string>{"0.5", "1.0"}));
  EXPECT_EQ(spec.axes[1].key, "nodes");
}

TEST(CampaignSpec, RejectsMalformedInput) {
  auto expect_error = [](const std::string& text, const std::string& needle) {
    try {
      parse_campaign_string(text);
      FAIL() << "expected parse error containing '" << needle << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  };
  expect_error("bogus_key 1\n", "unknown campaign key");
  // Execution shape is the scheduler's (--workers), never the spec's.
  expect_error("threads 4\n", "unknown campaign key");
  expect_error("trials 0\n", "trials must be >= 1");
  expect_error("trials x\n", "expects an integer");
  expect_error("sweep k\n", "at least one value");
  expect_error("sweep k 1 2\nsweep k 3\n", "swept twice");
  expect_error("sweep alpha 0.5 big\n", "expects a number");
  // Identity keys are not sweepable: seeds derive from trial identity.
  expect_error("sweep seed 1 2\n", "not a sweepable scenario key");
  expect_error("sweep threads 1 2\n", "not a sweepable scenario key");
  expect_error("scenario a.scn\nsweep scenario b.scn c.scn\n",
               "both fixed and swept");
  // A static campaign's base config must be coherent up front.
  expect_error("nodes 2\nk 5\n", "base config invalid");
  expect_error("name x\n\nsweep k\n", "line 3");
}

// ----------------------------------------------------------- expansion ----

TEST(CampaignGrid, RowMajorExpansionWithDerivedSeeds) {
  const CampaignSpec spec = parse_campaign_string(R"(
trials 2
seed   7
sweep k 1 2
sweep alpha 0.5 0.8 1.0
)");
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 12u);  // 2 * 3 grid points, 2 reps each

  // Axis 0 (k) outermost, rep innermost; trial/point/rep indices consistent.
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TrialPoint& pt = points[i];
    EXPECT_EQ(pt.trial, static_cast<int>(i));
    EXPECT_EQ(pt.point, static_cast<int>(i) / 2);
    EXPECT_EQ(pt.rep, static_cast<int>(i) % 2);
    ASSERT_EQ(pt.values.size(), 2u);
    EXPECT_EQ(pt.values[0].first, "k");
    EXPECT_EQ(pt.values[1].first, "alpha");
    // Seeds are a pure function of identity, not of enumeration order.
    EXPECT_EQ(pt.seed, Rng::derive(7, static_cast<std::uint64_t>(pt.point),
                                   static_cast<std::uint64_t>(pt.rep)));
  }
  EXPECT_EQ(points[0].values[0].second, "1");
  EXPECT_EQ(points[0].values[1].second, "0.5");
  EXPECT_EQ(points[2].values[1].second, "0.8");   // alpha varies first
  EXPECT_EQ(points[6].values[0].second, "2");     // k flips after 3 alphas

  // All 12 derived seeds are distinct.
  std::vector<std::uint64_t> seeds;
  for (const auto& pt : points) seeds.push_back(pt.seed);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST(CampaignGrid, NoAxesYieldsPureRepetition) {
  const CampaignSpec spec = parse_campaign_string("trials 4\n");
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 4u);
  for (const auto& pt : points) {
    EXPECT_EQ(pt.point, 0);
    EXPECT_TRUE(pt.values.empty());
  }
}

TEST(CampaignMetrics, IndexRoundTripsAndRejectsTypos) {
  for (const std::string& name : metric_names())
    EXPECT_EQ(metric_names()[metric_index(name)], name);
  EXPECT_THROW(metric_index("total_runds"), std::out_of_range);
}

// ----------------------------------------------- scheduler determinism ----

/// Small but real campaign: 2 grid points x 2 seeds of a 12-node run.
constexpr const char* kSmallCampaign = R"(
name    small
trials  2
seed    11
domain  square
side    150
deploy  uniform
nodes   12
k       1
epsilon 0.5
max_rounds 150
grid_resolution 8
sweep alpha 0.6 1.0
)";

CampaignResult run_campaign(const std::string& text, int workers,
                            const std::string& manifest = "",
                            bool resume = false) {
  CampaignOptions opt;
  opt.workers = workers;
  opt.manifest_path = manifest;
  opt.resume = resume;
  CampaignScheduler scheduler(parse_campaign_string(text), std::move(opt));
  return scheduler.run();
}

std::string to_json(const CampaignResult& result) {
  std::ostringstream out;
  result.write_json(out);
  return out.str();
}

std::string to_csv(const CampaignResult& result) {
  std::ostringstream out;
  result.write_csv(out);
  return out.str();
}

TEST(CampaignScheduler, ByteIdenticalAcrossWorkerCounts) {
  const CampaignResult serial = run_campaign(kSmallCampaign, 1);
  const CampaignResult two = run_campaign(kSmallCampaign, 2);
  const CampaignResult eight = run_campaign(kSmallCampaign, 8);
  EXPECT_EQ(to_json(serial), to_json(two));
  EXPECT_EQ(to_json(serial), to_json(eight));
  EXPECT_EQ(to_csv(serial), to_csv(two));
  EXPECT_EQ(to_csv(serial), to_csv(eight));
}

TEST(CampaignScheduler, AggregatesGroupBySweptAxes) {
  const CampaignResult result = run_campaign(kSmallCampaign, 2);
  ASSERT_EQ(result.trials.size(), 4u);
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_TRUE(result.all_ok());
  for (const GroupAggregate& g : result.groups) {
    EXPECT_EQ(g.trials, 2);
    EXPECT_EQ(g.ok, 2);
    const MetricAggregate& rounds = g.metrics[metric_index("total_rounds")];
    EXPECT_EQ(rounds.n, 2);
    EXPECT_TRUE(std::isfinite(rounds.mean));
    EXPECT_GT(rounds.mean, 0.0);
    EXPECT_GE(rounds.max, rounds.p50);
    EXPECT_GE(rounds.p50, rounds.min);
    // Every trial of this tiny run converges with verified 1-coverage.
    EXPECT_DOUBLE_EQ(g.metrics[metric_index("converged")].mean, 1.0);
    EXPECT_DOUBLE_EQ(g.metrics[metric_index("coverage_ok")].mean, 1.0);
  }
  // The swept axis is echoed per group, in axis order.
  EXPECT_EQ(result.groups[0].values[0],
            (std::pair<std::string, std::string>{"alpha", "0.6"}));
  EXPECT_EQ(result.groups[1].values[0],
            (std::pair<std::string, std::string>{"alpha", "1.0"}));
}

TEST(CampaignScheduler, FailingTrialDegradesToNullNotZero) {
  // nodes=1 with k=2 fails scenario validation inside the trial; the row
  // must record the error with NaN metrics (JSON null), not fake zeros,
  // and the campaign must still complete and aggregate the healthy point.
  const char* text = R"(
name    degrade
trials  1
seed    5
side    150
nodes   12
k       2
epsilon 0.5
max_rounds 150
grid_resolution 8
sweep nodes 1 12
)";
  const CampaignResult result = run_campaign(text, 2);
  ASSERT_EQ(result.trials.size(), 2u);
  EXPECT_FALSE(result.all_ok());

  const TrialResult& bad = result.trials[0];
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("nodes"), std::string::npos);
  EXPECT_TRUE(std::isnan(bad.metrics[metric_index("total_rounds")]));
  EXPECT_DOUBLE_EQ(bad.metrics[metric_index("aborted")], 1.0);
  EXPECT_TRUE(result.trials[1].ok);

  // Aggregates over the failed group are empty -> NaN -> JSON null.
  EXPECT_EQ(result.groups[0].metrics[metric_index("total_rounds")].n, 0);
  EXPECT_TRUE(
      std::isnan(result.groups[0].metrics[metric_index("total_rounds")].mean));
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"mean\": null"), std::string::npos);
  EXPECT_NE(json.find("\"error\""), std::string::npos);
}

TEST(CampaignScheduler, JsonExcludesExecutionDetails) {
  const std::string json = to_json(run_campaign(kSmallCampaign, 3));
  EXPECT_NE(json.find("\"schema\": \"laacad.campaign.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"campaign\": \"small\""), std::string::npos);
  EXPECT_NE(json.find("\"groups\""), std::string::npos);
  EXPECT_EQ(json.find("workers"), std::string::npos);
  EXPECT_EQ(json.find("threads"), std::string::npos);
  EXPECT_EQ(json.find("manifest"), std::string::npos);
  EXPECT_EQ(json.find("resume"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// --------------------------------------------------------------- resume ----

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines, bool final_newline) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << lines[i];
    if (i + 1 < lines.size() || final_newline) out << '\n';
  }
}

TEST(CampaignResume, PartialManifestYieldsIdenticalOutput) {
  const std::string full = testing::TempDir() + "campaign_full.manifest";
  const std::string partial =
      testing::TempDir() + "campaign_partial.manifest";

  const CampaignResult reference = run_campaign(kSmallCampaign, 2, full);
  EXPECT_EQ(reference.executed, 4);
  EXPECT_EQ(reference.recovered, 0);

  // Simulate a kill after two journaled trials: header + first two rows.
  const auto lines = read_lines(full);
  ASSERT_EQ(lines.size(), 5u);  // header + 4 trials
  write_lines(partial, {lines[0], lines[1], lines[2]}, true);

  const CampaignResult resumed =
      run_campaign(kSmallCampaign, 3, partial, /*resume=*/true);
  EXPECT_EQ(resumed.recovered, 2);
  EXPECT_EQ(resumed.executed, 2);
  EXPECT_EQ(to_json(reference), to_json(resumed));
  EXPECT_EQ(to_csv(reference), to_csv(resumed));

  // After the resumed run the manifest is complete: resuming again runs 0
  // trials and still reproduces the same bytes.
  const CampaignResult again =
      run_campaign(kSmallCampaign, 1, partial, /*resume=*/true);
  EXPECT_EQ(again.recovered, 4);
  EXPECT_EQ(again.executed, 0);
  EXPECT_EQ(to_json(reference), to_json(again));
}

TEST(CampaignResume, TruncatedTailIsIgnored) {
  const std::string full = testing::TempDir() + "campaign_tail.manifest";
  const std::string cut = testing::TempDir() + "campaign_cut.manifest";
  run_campaign(kSmallCampaign, 1, full);
  auto lines = read_lines(full);
  ASSERT_EQ(lines.size(), 5u);
  // A kill mid-write leaves a half row: keep one good row, then garbage.
  const std::string half = lines[2].substr(0, lines[2].size() / 2);
  write_lines(cut, {lines[0], lines[1], half}, false);

  const CampaignResult resumed =
      run_campaign(kSmallCampaign, 2, cut, /*resume=*/true);
  EXPECT_EQ(resumed.recovered, 1);
  EXPECT_EQ(resumed.executed, 3);
  const CampaignResult reference = run_campaign(kSmallCampaign, 1);
  EXPECT_EQ(to_json(reference), to_json(resumed));

  // The insidious case: a cut inside the *last metric* still parses as a
  // plausible double ("83.43827" from "83.438274..."), so only the missing
  // row terminator exposes it. The row must be dropped, never recovered
  // with a silently corrupted value.
  write_lines(cut, {lines[0], lines[1].substr(0, lines[1].size() - 2)},
              false);
  const CampaignResult cut_metric =
      run_campaign(kSmallCampaign, 1, cut, /*resume=*/true);
  EXPECT_EQ(cut_metric.recovered, 0);
  EXPECT_EQ(to_json(reference), to_json(cut_metric));
}

TEST(CampaignResume, FailingTrialsRoundTripThroughTheManifest) {
  // The journal must carry the error text too: the aggregate JSON emits
  // it, so a resumed run of a *failing* campaign has to reproduce the
  // same bytes as an uninterrupted one.
  const char* text = R"(
name    degrade_resume
trials  1
seed    5
side    150
nodes   12
k       2
epsilon 0.5
max_rounds 150
grid_resolution 8
sweep nodes 1 12
)";
  const std::string full = testing::TempDir() + "campaign_err.manifest";
  const std::string partial =
      testing::TempDir() + "campaign_err_cut.manifest";
  const CampaignResult reference = run_campaign(text, 1, full);
  EXPECT_FALSE(reference.all_ok());

  // Keep only the failed trial's row (workers=1 journals in trial order).
  const auto lines = read_lines(full);
  ASSERT_EQ(lines.size(), 3u);
  write_lines(partial, {lines[0], lines[1]}, true);
  const CampaignResult resumed = run_campaign(text, 1, partial, true);
  EXPECT_EQ(resumed.recovered, 1);
  EXPECT_FALSE(resumed.trials[0].error.empty());
  EXPECT_EQ(to_json(reference), to_json(resumed));

  // A row whose error text was cut by a kill mid-write is dropped, not
  // half-recovered (the length prefix catches it).
  write_lines(partial, {lines[0], lines[1].substr(0, lines[1].size() - 4)},
              false);
  const CampaignResult redone = run_campaign(text, 1, partial, true);
  EXPECT_EQ(redone.recovered, 0);
  EXPECT_EQ(to_json(reference), to_json(redone));
}

TEST(CampaignResume, EditedScenarioFileInvalidatesManifest) {
  // The fingerprint hashes referenced .scn *contents*: resuming after the
  // scenario changed would silently mix two experiments.
  const std::string dir = testing::TempDir();
  const std::string scn = dir + "camp_fp.scn";
  auto write_scn = [&](int nodes) {
    std::ofstream out(scn, std::ios::trunc);
    out << "side 120\nnodes " << nodes
        << "\nk 1\nseed 5\nmax_rounds 150\ngrid_resolution 8\n"
           "event converged fail_nodes count=1 pick=random\n";
  };
  write_scn(8);
  const std::string campaign_path = dir + "camp_fp.cmp";
  {
    std::ofstream c(campaign_path);
    c << "name fp\ntrials 1\nseed 3\nscenario camp_fp.scn\n";
  }
  const std::string manifest = dir + "camp_fp.manifest";
  auto run = [&](bool resume) {
    CampaignOptions opt;
    opt.workers = 1;
    opt.manifest_path = manifest;
    opt.resume = resume;
    CampaignScheduler scheduler(load_campaign_file(campaign_path),
                                std::move(opt));
    return scheduler.run();
  };
  run(false);
  EXPECT_EQ(run(true).recovered, 1);  // untouched file: manifest accepted
  write_scn(9);
  EXPECT_THROW(run(true), std::runtime_error);
}

TEST(CampaignResume, MismatchedManifestIsRejected) {
  const std::string path = testing::TempDir() + "campaign_mismatch.manifest";
  run_campaign(kSmallCampaign, 1, path);
  // Same campaign but a different sweep: the fingerprint must not match.
  std::string other = kSmallCampaign;
  other += "sweep k 1 2\n";
  EXPECT_THROW(run_campaign(other, 1, path, /*resume=*/true),
               std::runtime_error);
}

TEST(CampaignResume, FingerprintCoversEveryPhysicalBaseKey) {
  // The base config is hashed from the scenario key table itself, so a
  // base changed without a matching override line (as a program building
  // a spec in memory does) still changes the campaign's identity.
  const CampaignSpec spec = parse_campaign_string(kSmallCampaign);
  const std::uint64_t fp = fingerprint(spec);
  const std::vector<std::pair<std::string, std::string>> changes = {
      {"domain", "cross"},  {"side", "301"},       {"hole", "true"},
      {"deploy", "corner"}, {"nodes", "99"},       {"k", "3"},
      {"alpha", "0.25"},    {"epsilon", "0.75"},   {"max_rounds", "7"},
      {"gamma", "12.5"},    {"backend", "auto"},   {"max_hops", "4"},
      {"noise", "0.125"},   {"flooding", "ttl"},   {"battery", "9"},
      {"grid_resolution", "2.5"}};
  for (const auto& [key, value] : changes) {
    CampaignSpec changed = spec;
    ASSERT_TRUE(scenario::set_key(changed.base, key, value, 0)) << key;
    EXPECT_NE(fingerprint(changed), fp) << key;
  }
}

TEST(CampaignResume, FreshRunTruncatesStaleManifest) {
  const std::string path = testing::TempDir() + "campaign_stale.manifest";
  run_campaign(kSmallCampaign, 1, path);
  const CampaignResult fresh = run_campaign(kSmallCampaign, 1, path);
  EXPECT_EQ(fresh.recovered, 0);
  EXPECT_EQ(fresh.executed, 4);
}

// ------------------------------------------------------- scenario axis ----

TEST(CampaignScenarioAxis, SweepsScenarioFilesDeterministically) {
  // Two tiny scenario timelines; the campaign reruns each under derived
  // seeds, so this exercises path resolution, per-file reload, and the
  // scenario/campaign composition end to end.
  const std::string dir = testing::TempDir();
  {
    std::ofstream a(dir + "camp_axis_a.scn");
    a << "side 120\nnodes 8\nk 1\nseed 5\nmax_rounds 150\n"
         "grid_resolution 8\n"
         "event converged fail_nodes count=1 pick=random\n";
    std::ofstream b(dir + "camp_axis_b.scn");
    b << "side 120\nnodes 8\nk 1\nseed 5\nmax_rounds 150\n"
         "grid_resolution 8\n"
         "event converged add_nodes count=2 deploy=uniform\n";
  }
  const std::string campaign_path = dir + "camp_axis.cmp";
  {
    std::ofstream c(campaign_path);
    c << "name axis\ntrials 2\nseed 3\n"
         "sweep scenario camp_axis_a.scn camp_axis_b.scn\n";
  }
  CampaignOptions opt;
  opt.workers = 2;
  CampaignScheduler scheduler(load_campaign_file(campaign_path),
                              std::move(opt));
  const CampaignResult result = scheduler.run();
  ASSERT_EQ(result.trials.size(), 4u);
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_TRUE(result.all_ok());
  // Scenario trials fire their events: one phase per event plus the start.
  for (const GroupAggregate& g : result.groups) {
    EXPECT_DOUBLE_EQ(g.metrics[metric_index("phases")].mean, 2.0);
    EXPECT_DOUBLE_EQ(g.metrics[metric_index("events_fired")].mean, 1.0);
  }
  // add_nodes grows the survivors' count: 8 + 2 = 10 vs 8 - 1 = 7.
  EXPECT_DOUBLE_EQ(
      result.groups[0].metrics[metric_index("final_nodes")].mean, 7.0);
  EXPECT_DOUBLE_EQ(
      result.groups[1].metrics[metric_index("final_nodes")].mean, 10.0);

  // Same campaign, serial: byte-identical.
  CampaignOptions serial_opt;
  serial_opt.workers = 1;
  CampaignScheduler serial(load_campaign_file(campaign_path),
                           std::move(serial_opt));
  EXPECT_EQ(to_json(result), to_json(serial.run()));
}

// ------------------------------------------------------- trial resolve ----

TEST(TrialResolve, AppliesOverridesSweptValuesAndDerivedSeed) {
  const CampaignSpec spec = parse_campaign_string(R"(
trials 1
seed   17
nodes  20
k      2
sweep alpha 0.5 1.0
)");
  const auto points = expand_grid(spec);
  const scenario::ScenarioSpec resolved = resolve_trial_spec(spec, points[1]);
  EXPECT_EQ(resolved.nodes, 20);
  EXPECT_EQ(resolved.k, 2);
  EXPECT_DOUBLE_EQ(resolved.alpha, 1.0);
  EXPECT_EQ(resolved.seed, points[1].seed);
  // Trials are always serial; parallelism lives at the trial level.
  EXPECT_EQ(resolved.num_threads, 1);
}

}  // namespace
}  // namespace laacad::campaign
