// campaign_fleet — run one campaign as a fleet of local shard processes
// and merge their manifests into the single-process outputs.
//
// Usage:
//   campaign_fleet <campaign-file> --shards N [--workers W] [--runner PATH]
//                  [--max-restarts K] [--resume] [--merge-only]
//                  [--manifest-dir DIR] [--json PATH] [--csv PATH]
//                  [--manifest PATH] [--quiet] [--heartbeat] [--trace PATH]
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
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/specparse.hpp"
#include "dist/fleet.hpp"
#include "obs/trace.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s <campaign-file> --shards N [--workers W] [--runner PATH]\n"
      "          [--max-restarts K] [--resume] [--merge-only]\n"
      "          [--manifest-dir DIR] [--json PATH] [--csv PATH]\n"
      "          [--manifest PATH] [--quiet]\n"
      "  --shards N        shard processes to spawn (and manifests to merge)\n"
      "  --workers W       per-shard trial parallelism (0 = hardware)\n"
      "  --runner PATH     campaign_runner binary (default: next to this one)\n"
      "  --max-restarts K  crash restarts allowed per shard (default 2)\n"
      "  --resume          pass --resume to the first launch of every shard\n"
      "  --merge-only      skip launching; merge existing shard manifests\n"
      "  --manifest-dir DIR  where shard manifests live (default: cwd)\n"
      "  --json/--csv/--manifest PATH  merged output paths\n"
      "  --heartbeat       shards emit JSON heartbeats; the supervisor\n"
      "                    consumes them and emits fleet-level heartbeats\n"
      "                    (stderr) instead of scraping stdout\n"
      "  --trace PATH      write a Chrome trace-event JSON with one span\n"
      "                    per shard lifecycle (spawn to reap)\n",
      argv0);
}

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
  using laacad::specparse::parse_int;
  laacad::dist::FleetOptions opt;
  std::string trace_path;
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string flag = argv[a];
      auto next_value = [&](const char* what) -> const char* {
        if (a + 1 >= argc) {
          std::fprintf(stderr, "%s expects a value\n", what);
          std::exit(2);
        }
        return argv[++a];
      };
      if (flag == "--help" || flag == "-h") { usage(argv[0]); return 0; }
      else if (flag == "--quiet") opt.quiet = true;
      else if (flag == "--heartbeat") opt.heartbeat = true;
      else if (flag == "--trace") trace_path = next_value("--trace");
      else if (flag == "--resume") opt.resume = true;
      else if (flag == "--merge-only") opt.merge_only = true;
      else if (flag == "--shards")
        opt.shards = parse_int(next_value("--shards"), 0, flag, 0);
      else if (flag == "--workers")
        opt.workers = parse_int(next_value("--workers"), 0, flag, 0);
      else if (flag == "--max-restarts")
        opt.max_restarts =
            parse_int(next_value("--max-restarts"), 0, flag, 0);
      else if (flag == "--runner") opt.runner = next_value("--runner");
      else if (flag == "--manifest-dir")
        opt.manifest_dir = next_value("--manifest-dir");
      else if (flag == "--json") opt.json_path = next_value("--json");
      else if (flag == "--csv") opt.csv_path = next_value("--csv");
      else if (flag == "--manifest")
        opt.merged_manifest_path = next_value("--manifest");
      else if (!flag.empty() && flag[0] == '-') {
        std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
        usage(argv[0]);
        return 2;
      } else if (opt.campaign_path.empty()) opt.campaign_path = flag;
      else { usage(argv[0]); return 2; }
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "campaign_fleet: %s\n",
                 laacad::specparse::without_line(e.what()).c_str());
    return 2;
  }
  if (opt.campaign_path.empty()) { usage(argv[0]); return 2; }
  if (opt.runner.empty()) opt.runner = sibling_runner(argv[0]);
  if (!trace_path.empty()) laacad::obs::start_trace(trace_path);
  const int status = laacad::dist::run_fleet(opt);
  if (!trace_path.empty()) laacad::obs::stop_trace();
  return status;
}
