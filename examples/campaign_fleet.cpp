// campaign_fleet — run one campaign as a fleet of local shard processes
// and merge their manifests into the single-process outputs.
//
// Usage: campaign_fleet <campaign-file> --shards N [options]; --help lists
// them.
//
// Spawns one `campaign_runner --shard i/N` process per shard (fork/exec of
// the binary next to this one unless --runner overrides), streams each
// worker's output prefixed with its shard, restarts crashed shards with
// --resume, and merges the shard manifests on completion. The merged
// BENCH_campaign_<name>.json / _trials.csv are byte-identical to what a
// single `campaign_runner` run would have produced, for any shard count
// and any per-shard worker count; the merged .manifest is row-sorted, so
// it matches the journal of a *serial* (--workers 1) run — a parallel
// run's journal is the same rows in completion order.
//
// Cross-host campaigns: run `campaign_runner --shard i/N` on each host,
// rsync the BENCH_campaign_<name>.shard-*-of-N.manifest files into one
// directory, and run `campaign_fleet <campaign-file> --shards N
// --merge-only --manifest-dir DIR` there — the merge validates the fleet
// (one fingerprint, one shard scheme, every trial exactly once) before
// emitting anything.
//
// Exit status: 0 all trials ok, 1 merge succeeded but trials failed, 2
// infrastructure failure (bad spec, crashed-out shard, merge validation).
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "dist/fleet.hpp"
#include "obs/trace.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace {

/// The runner lives next to this binary in every supported layout (one
/// build tree, one install prefix, one rsync'd directory).
std::string sibling_runner(const char* argv0) {
  std::string self = argv0;
#ifndef _WIN32
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    self = buf;
  }
#endif
  const auto slash = self.find_last_of("/\\");
  const std::string dir =
      slash == std::string::npos ? std::string() : self.substr(0, slash + 1);
  return dir + "campaign_runner";
}

}  // namespace

int main(int argc, char** argv) {
  laacad::dist::FleetOptions opt;
  std::string trace_path;
  laacad::cli::Parser cli("campaign_fleet");
  cli.positional("campaign-file", /*required=*/true, &opt.campaign_path)
      .flag("--shards", "N",
            "shard processes to spawn (and manifests to merge)", &opt.shards,
            0)
      .flag("--workers", "W", "per-shard trial parallelism (0 = hardware)",
            &opt.workers, 0)
      .flag("--runner", "PATH", "campaign_runner (default: next to this one)",
            &opt.runner)
      .flag("--resume", "pass --resume to each shard's first launch",
            &opt.resume)
      .flag("--merge-only", "launch nothing; merge existing shard manifests",
            &opt.merge_only)
      .flag("--manifest-dir", "DIR", "where shard manifests live (default .)",
            &opt.manifest_dir)
      .flag("--json", "PATH", "merged aggregates", &opt.json_path)
      .flag("--csv", "PATH", "merged trial log", &opt.csv_path)
      .flag("--manifest", "PATH", "merged, row-sorted journal",
            &opt.merged_manifest_path)
      .flag("--quiet", "relay no shard output", &opt.quiet)
      .flag("--heartbeat", "consume shard heartbeats; emit fleet ones",
            &opt.heartbeat)
      .flag("--trace", "PATH", "Chrome trace JSON, one span per shard",
            &trace_path);
  if (const auto status = cli.parse(argc, argv)) return *status;
  if (opt.runner.empty()) opt.runner = sibling_runner(argv[0]);
  if (!trace_path.empty()) laacad::obs::start_trace(trace_path);
  const int status = laacad::dist::run_fleet(opt);
  if (!trace_path.empty()) laacad::obs::stop_trace();
  return status;
}
