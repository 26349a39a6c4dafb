// campaign_runner — expand a declarative parameter-sweep campaign into a
// trial matrix, shard it across workers, and emit aggregate metrics.
//
// Usage: campaign_runner <campaign-file> [options]; --help lists them.
//
// The campaign format is documented in src/campaign/spec.hpp and the
// README; shipped examples live in campaigns/. Outputs (defaults derive
// from the campaign name):
//   BENCH_campaign_<name>.json      grouped aggregates + per-trial rows
//   BENCH_campaign_<name>_trials.csv   trial log, one row per trial
//   BENCH_campaign_<name>.manifest  streaming journal; --resume replays it
// All outputs are byte-identical for every --workers value and for any
// interrupt/--resume split. Exit status 0 iff every trial completed with
// verified final k-coverage.
//
// With --shard i/N this process runs only its stride partition of the
// matrix (trial % N == i, see src/dist/partition.hpp), journals into
// BENCH_campaign_<name>.shard-i-of-N.manifest, and emits no aggregates —
// those come from merging all N shard manifests (campaign_fleet, which
// also spawns local shard fleets; cross-host runs rsync the manifests and
// merge with --merge-only). Per-shard --resume works unchanged.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "campaign/scheduler.hpp"
#include "common/cli.hpp"
#include "common/sysinfo.hpp"
#include "common/table.hpp"
#include "dist/partition.hpp"
#include "obs/heartbeat.hpp"
#include "obs/trace.hpp"

namespace {

std::string describe_point(
    const std::vector<std::pair<std::string, std::string>>& values) {
  std::string out;
  for (const auto& [key, value] : values) {
    if (!out.empty()) out += ' ';
    out += key + "=" + value;
  }
  return out.empty() ? "-" : out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace laacad;

  std::string path, json_path, csv_path, manifest_path, trace_path;
  campaign::CampaignOptions opt;
  // Any explicit --shard — including the degenerate 0/1 a one-shard fleet
  // passes — selects journal-only mode; aggregates belong to the merge.
  bool dry_run = false, quiet = false, sharded = false;
  bool heartbeat = false;
  cli::Parser cli("campaign_runner");
  cli.positional("campaign-file", /*required=*/true, &path)
      .flag("--workers", "N",
            "threads (0 = hardware); outputs never change", &opt.workers, 0)
      .flag("--resume", "skip trials already journaled in the manifest",
            &opt.resume)
      .flag("--json", "PATH", "aggregates (default BENCH_campaign_<name>.json)",
            &json_path)
      .flag("--csv", "PATH",
            "trial log (default BENCH_campaign_<name>_trials.csv)", &csv_path)
      .flag("--manifest", "PATH",
            "journal (default BENCH_campaign_<name>.manifest)", &manifest_path)
      .flag("--shard", "i/N",
            "run one stride partition; journal only, no aggregates",
            [&](const std::string& value) {
              opt.shard = dist::parse_shard(value);
              sharded = true;
            })
      .flag("--dry-run", "print the expanded trial matrix and exit", &dry_run)
      .flag("--quiet", "print no progress or summary", &quiet)
      .flag("--trace", "PATH", "Chrome trace-event JSON; outputs never change",
            &trace_path)
      .flag("--heartbeat", "stream JSON progress heartbeats to stderr",
            &heartbeat);
  if (const auto status = cli.parse(argc, argv)) return *status;

  if (sharded && (!json_path.empty() || !csv_path.empty())) {
    std::fprintf(stderr,
                 "campaign_runner: --shard runs emit no aggregates "
                 "(--json/--csv): merge the shard manifests with "
                 "campaign_fleet instead\n");
    return 2;
  }

  campaign::CampaignResult result;
  std::string name;
  try {
    campaign::CampaignSpec spec = campaign::load_campaign_file(path);
    name = spec.name;
    if (json_path.empty()) json_path = "BENCH_campaign_" + name + ".json";
    if (csv_path.empty()) csv_path = "BENCH_campaign_" + name + "_trials.csv";
    if (manifest_path.empty())
      manifest_path = sharded
                          ? dist::shard_manifest_path(name, opt.shard)
                          : "BENCH_campaign_" + name + ".manifest";
    opt.manifest_path = manifest_path;
    // Both progress channels ride the same callback (it runs under the
    // scheduler lock, so the shared counters need no extra locking): the
    // human table line on stdout, the machine heartbeat line on stderr.
    std::shared_ptr<obs::HeartbeatEmitter> hb;
    if (heartbeat) {
      int owned = 0;
      for (const auto& pt : campaign::expand_grid(spec))
        if (dist::owns(opt.shard, pt.trial)) ++owned;
      hb = std::make_shared<obs::HeartbeatEmitter>(
          stderr, "campaign", name,
          sharded ? dist::to_string(opt.shard) : std::string(), owned);
    }
    if (!quiet || hb) {
      auto ok_count = std::make_shared<int>(0);
      opt.on_trial = [quiet, hb, ok_count](const campaign::TrialPoint& pt,
                                           const campaign::TrialResult& r,
                                           int done, int total) {
        if (r.ok) ++*ok_count;
        if (!quiet) {
          std::string status = r.ok ? "ok" : "FAILED";
          if (!r.ok && !r.error.empty()) status += " — " + r.error;
          std::printf("[%d/%d] trial %d (%s rep=%d): %s\n", done, total,
                      pt.trial, describe_point(pt.values).c_str(), pt.rep,
                      status.c_str());
          std::fflush(stdout);
        }
        if (hb) hb->tick(done, *ok_count);
      };
    }

    // opt is consumed next; keep the shard coordinates for the printouts.
    const dist::ShardSpec shard = opt.shard;
    campaign::CampaignScheduler scheduler(std::move(spec), std::move(opt));
    if (dry_run) {
      // A sharded dry run lists only the slice this process would run.
      std::size_t owned = 0;
      for (const auto& pt : scheduler.trials())
        if (dist::owns(shard, pt.trial)) ++owned;
      if (sharded)
        std::printf("campaign '%s': shard %s owns %zu of %zu trials\n",
                    name.c_str(), dist::to_string(shard).c_str(), owned,
                    scheduler.trials().size());
      else
        std::printf("campaign '%s': %zu trials\n", name.c_str(), owned);
      TextTable table({"trial", "point", "rep", "seed", "values"});
      for (const auto& pt : scheduler.trials()) {
        if (!dist::owns(shard, pt.trial)) continue;
        table.add_row({std::to_string(pt.trial), std::to_string(pt.point),
                       std::to_string(pt.rep), std::to_string(pt.seed),
                       describe_point(pt.values)});
      }
      table.print(std::cout);
      return 0;
    }
    if (!trace_path.empty()) obs::start_trace(trace_path);
    result = scheduler.run();
    if (!trace_path.empty()) {
      const obs::TraceReport report = obs::stop_trace();
      if (!quiet)
        std::printf("trace: %s (%zu spans across %zu threads)\n",
                    trace_path.c_str(), report.spans, report.threads);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_runner: %s\n", e.what());
    return 2;
  }

  if (sharded) {
    // A shard holds a partial matrix: aggregates would be meaningless, so
    // only the journal leaves this process. campaign_fleet (or a
    // --merge-only run over rsync'd manifests) produces the real outputs.
    if (!quiet) {
      std::printf(
          "shard %s of campaign '%s': %d trials run, %d resumed — "
          "journal %s\nmerge all %d shard manifests with campaign_fleet "
          "to get aggregates\n",
          dist::to_string(result.shard).c_str(), name.c_str(),
          result.executed, result.recovered, manifest_path.c_str(),
          result.shard.count);
      std::printf("peak RSS: %.1f MiB\n",
                  static_cast<double>(common::peak_rss_bytes()) /
                      (1024.0 * 1024.0));
    }
    return result.all_ok() ? 0 : 1;
  }

  std::ofstream json_out(json_path);
  if (!json_out) {
    std::fprintf(stderr, "campaign_runner: cannot write %s\n",
                 json_path.c_str());
    return 2;
  }
  result.write_json(json_out);
  std::ofstream csv_out(csv_path);
  if (!csv_out) {
    std::fprintf(stderr, "campaign_runner: cannot write %s\n",
                 csv_path.c_str());
    return 2;
  }
  result.write_csv(csv_out);

  if (!quiet) {
    TextTable table({"point", "values", "n", "ok", "rounds (mean)",
                     "R* (mean)", "fairness (mean)"});
    const std::size_t rounds_m = campaign::metric_index("total_rounds");
    const std::size_t range_m = campaign::metric_index("max_range");
    const std::size_t fair_m = campaign::metric_index("fairness");
    for (const auto& g : result.groups) {
      table.add_row({std::to_string(g.point), describe_point(g.values),
                     std::to_string(g.trials), std::to_string(g.ok),
                     TextTable::num(g.metrics[rounds_m].mean, 1),
                     TextTable::num(g.metrics[range_m].mean, 2),
                     TextTable::num(g.metrics[fair_m].mean, 3)});
    }
    table.print(std::cout);
    std::printf(
        "campaign '%s': %zu trials (%d run, %d resumed), %zu grid points, "
        "%s\n",
        result.spec.name.c_str(), result.trials.size(), result.executed,
        result.recovered, result.groups.size(),
        result.all_ok() ? "all ok" : "FAILURES");
    // Stdout only: RSS is machine- and run-dependent, so it must never
    // enter the byte-identical JSON/CSV/manifest artifacts.
    std::printf("peak RSS: %.1f MiB\n",
                static_cast<double>(common::peak_rss_bytes()) /
                    (1024.0 * 1024.0));
    std::printf("aggregates: %s\ntrial log: %s\n", json_path.c_str(),
                csv_path.c_str());
  }
  return result.all_ok() ? 0 : 1;
}
