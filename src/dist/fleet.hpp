// Fleet launcher — runs one campaign as N local shard processes and merges
// their manifests into the single-process result.
//
// Each worker is a fork/exec of `campaign_runner --shard i/N`, journaling
// into its own shard manifest; the supervisor streams every worker's
// output (each relayed line is one timestamped atomic write, prefixed
// "[HH:MM:SS shard i/N]", so concurrent shards never shear each other's
// lines), restarts a *crashed* shard (killed by a signal — OOM, ^C on the
// child, machine hiccup) with `--resume`, at most twice per shard, so it
// re-runs only the trials its journal is missing, and finally merges via
// dist::merge_manifests. A shard that exits cleanly with failing trials
// is NOT restarted: trials are deterministic, so a re-run would fail the
// same way — the failure belongs in the aggregates, not in a retry loop.
//
// With `heartbeat` set the shards run with --heartbeat and the supervisor
// *consumes* their `{"hb":"campaign"}` stderr lines off the relay pipe
// (structured progress, not stdout scraping), folding them into
// `{"hb":"fleet"}` lines on its own stderr that carry fleet-wide
// done/total/ok plus per-shard liveness.
//
// Host-spanning campaigns use the same machinery without the supervisor:
// run `campaign_runner --shard i/N` per host, rsync the shard manifests to
// one place, and `campaign_fleet <spec> --shards N --merge-only` there.
#pragma once

#include <string>

namespace laacad::dist {

struct FleetOptions {
  std::string campaign_path;  ///< the .cmp file every shard loads
  std::string runner;         ///< campaign_runner binary to exec
  int shards = 2;             ///< N: one process per shard
  int workers = 1;      ///< per-shard --workers (0 = hardware concurrency)
  bool resume = false;   ///< first launch already passes --resume
  /// Directory for the shard manifests (default: current directory). The
  /// merged outputs land next to an unsharded run's: BENCH_campaign_<name>
  /// .json / _trials.csv / .manifest, overridable below.
  std::string manifest_dir;
  std::string json_path, csv_path, merged_manifest_path;
  bool merge_only = false;  ///< skip launching; merge existing manifests
  bool quiet = false;       ///< suppress shard output streaming
  /// Run shards with --heartbeat and emit fleet-level heartbeat lines on
  /// stderr (see the header comment). Heartbeats are consumed even under
  /// `quiet` — they are the machine channel, not chatter.
  bool heartbeat = false;
};

/// Launch, supervise, merge. Returns the process exit status: 0 when every
/// trial of the merged campaign completed with verified k-coverage, 1 when
/// the merge succeeded but some trials failed, 2 on infrastructure errors
/// (bad spec, un-execable runner, a shard crashing past its restart
/// budget, merge validation failure).
int run_fleet(const FleetOptions& opt);

}  // namespace laacad::dist
