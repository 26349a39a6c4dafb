#include "dist/fleet.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#ifndef _WIN32
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "campaign/spec.hpp"
#include "dist/merge.hpp"
#include "dist/partition.hpp"
#include "obs/heartbeat.hpp"
#include "obs/trace.hpp"

namespace laacad::dist {

#ifndef _WIN32

namespace {

/// One supervised shard process. fd < 0 means not currently running.
struct Worker {
  ShardSpec shard;
  std::string manifest;
  pid_t pid = -1;
  int fd = -1;          ///< read end of the child's stdout+stderr pipe
  std::string buf;      ///< carry-over for partial lines
  int restarts = 0;
  bool done = false;
  /// Last campaign heartbeat consumed from this shard (all zero until the
  /// first one lands). Survives restarts: --resume re-runs only missing
  /// trials, so the next heartbeat's `done` supersedes these monotonically.
  int hb_done = 0, hb_total = 0, hb_ok = 0;
  std::chrono::steady_clock::time_point spawned;  ///< for the shard span
};

/// Crash restarts allowed per shard before the fleet gives up.
constexpr int kMaxRestarts = 2;

/// Fold the shards' latest campaign heartbeats into one `{"hb":"fleet"}`
/// line on the supervisor's stderr.
void emit_fleet_beat(obs::HeartbeatEmitter& beat,
                     const std::vector<Worker>& workers) {
  int done = 0, total = 0, ok = 0, live = 0;
  for (const Worker& w : workers) {
    done += w.hb_done;
    total += w.hb_total;
    ok += w.hb_ok;
    if (w.fd >= 0) ++live;
  }
  beat.tick(done, ok, total, live);
}

/// Fork/exec one shard of the campaign; the child's stdout and stderr are
/// funneled into a pipe the supervisor streams. `resume` re-runs only the
/// trials the shard's journal is missing.
void spawn(const FleetOptions& opt, Worker& w, bool resume) {
  int fds[2];
  if (pipe(fds) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  const std::string shard_arg = to_string(w.shard);
  const std::string workers_arg = std::to_string(opt.workers);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: wire both streams into the pipe and become the shard runner.
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);
    close(fds[1]);
    std::vector<const char*> argv = {
        opt.runner.c_str(),   opt.campaign_path.c_str(),
        "--shard",            shard_arg.c_str(),
        "--workers",          workers_arg.c_str(),
        "--manifest",         w.manifest.c_str(),
    };
    if (resume) argv.push_back("--resume");
    if (opt.heartbeat) argv.push_back("--heartbeat");
    argv.push_back(nullptr);
    execv(opt.runner.c_str(), const_cast<char* const*>(argv.data()));
    // Only reached when exec failed; report through the pipe and die with
    // the infrastructure code so the supervisor aborts instead of retrying.
    std::fprintf(stderr, "exec %s: %s\n", opt.runner.c_str(),
                 std::strerror(errno));
    _exit(2);
  }
  close(fds[1]);
  w.pid = pid;
  w.fd = fds[0];
  w.buf.clear();
  w.spawned = std::chrono::steady_clock::now();
}

/// Relay one line of shard output as a single atomic write: the whole
/// timestamped, prefixed line is built in one buffer and handed to the OS
/// in one fwrite, so lines from different shards (and the supervisor's own
/// messages) can interleave only at line granularity, never mid-line.
void relay_line(const Worker& w, std::string_view line) {
  char stamp[16];
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  localtime_r(&t, &tm);
  std::strftime(stamp, sizeof(stamp), "%H:%M:%S", &tm);
  std::string out;
  out.reserve(line.size() + 32);
  out += '[';
  out += stamp;
  out += " shard ";
  out += to_string(w.shard);
  out += "] ";
  out.append(line.data(), line.size());
  out += '\n';
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

/// Drain complete lines from the worker's buffer: consume heartbeats into
/// the worker's progress fields, relay everything else (unless quiet).
/// Returns true when at least one heartbeat was consumed, so the caller
/// can fold an updated fleet heartbeat.
bool flush_lines(Worker& w, const FleetOptions& opt, bool final) {
  bool beat = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i < w.buf.size(); ++i) {
    if (w.buf[i] != '\n') continue;
    const std::string_view line(w.buf.data() + start, i - start);
    start = i + 1;
    obs::Heartbeat hb;
    if (opt.heartbeat && obs::parse_heartbeat(line, &hb)) {
      w.hb_done = hb.done;
      w.hb_total = hb.total;
      w.hb_ok = hb.ok;
      beat = true;
      continue;  // consumed: structured progress never reaches stdout
    }
    if (!opt.quiet) relay_line(w, line);
  }
  w.buf.erase(0, start);
  if (final && !w.buf.empty()) {
    if (!opt.quiet) relay_line(w, w.buf);
    w.buf.clear();
  }
  return beat;
}

void terminate_all(std::vector<Worker>& workers) {
  for (Worker& w : workers) {
    if (w.pid > 0 && !w.done) kill(w.pid, SIGTERM);
  }
  for (Worker& w : workers) {
    if (w.pid > 0 && !w.done) {
      waitpid(w.pid, nullptr, 0);
      w.done = true;
    }
    if (w.fd >= 0) {
      close(w.fd);
      w.fd = -1;
    }
  }
}

}  // namespace

int run_fleet(const FleetOptions& opt) {
  campaign::CampaignSpec spec;
  try {
    spec = campaign::load_campaign_file(opt.campaign_path);
    if (opt.shards < 1)
      throw std::runtime_error("fleet needs --shards >= 1");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_fleet: %s\n", e.what());
    return 2;
  }

  const std::string dir =
      opt.manifest_dir.empty() ? std::string() : opt.manifest_dir + "/";
  std::vector<Worker> workers;
  std::vector<std::string> shard_paths;
  for (int i = 0; i < opt.shards; ++i) {
    Worker w;
    w.shard = ShardSpec{i, opt.shards};
    w.manifest = dir + shard_manifest_path(spec.name, w.shard);
    shard_paths.push_back(w.manifest);
    workers.push_back(std::move(w));
  }

  if (!opt.merge_only) {
    try {
      for (Worker& w : workers) spawn(opt, w, opt.resume);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign_fleet: %s\n", e.what());
      terminate_all(workers);
      return 2;
    }

    // Supervision loop: stream output, reap exits, restart crashes with
    // --resume (the journal makes restarts cheap: only unfinished trials
    // re-run). Runs until every shard has exited cleanly or crashed out.
    obs::HeartbeatEmitter beat(stderr, "fleet", spec.name, /*shard=*/"",
                               /*total=*/0);
    bool infra_failure = false;
    while (!infra_failure) {
      std::vector<pollfd> fds;
      std::vector<Worker*> live;
      for (Worker& w : workers) {
        if (w.fd < 0) continue;
        fds.push_back({w.fd, POLLIN, 0});
        live.push_back(&w);
      }
      if (fds.empty()) break;
      if (poll(fds.data(), fds.size(), -1) < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "campaign_fleet: poll: %s\n",
                     std::strerror(errno));
        infra_failure = true;
        break;
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Worker& w = *live[i];
        char chunk[4096];
        const ssize_t n = read(w.fd, chunk, sizeof(chunk));
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        if (n > 0) {
          w.buf.append(chunk, static_cast<std::size_t>(n));
          if (flush_lines(w, opt, false)) emit_fleet_beat(beat, workers);
          continue;
        }
        // EOF: the child is gone (or closed its pipe); reap and decide.
        const bool had_beat = flush_lines(w, opt, true);
        close(w.fd);
        w.fd = -1;
        if (had_beat) emit_fleet_beat(beat, workers);
        // Shard lifecycle span (spawn -> reap) on the supervisor's
        // timeline; a no-op unless the caller started a trace session.
        obs::emit_span("shard", w.spawned,
                       std::chrono::steady_clock::now(), w.shard.index);
        int status = 0;
        waitpid(w.pid, &status, 0);
        w.pid = -1;
        if (WIFEXITED(status)) {
          const int code = WEXITSTATUS(status);
          w.done = true;
          if (code == 2) {
            // Spec/usage/exec failure: deterministic, every restart and
            // every sibling would hit it too.
            std::fprintf(stderr,
                         "campaign_fleet: shard %s failed fatally "
                         "(exit 2); aborting fleet\n",
                         to_string(w.shard).c_str());
            infra_failure = true;
          } else if (!opt.quiet) {
            std::printf("[shard %s] exited with status %d\n",
                        to_string(w.shard).c_str(), code);
            std::fflush(stdout);
          }
        } else if (w.restarts < kMaxRestarts) {
          ++w.restarts;
          if (!opt.quiet) {
            std::printf("[shard %s] crashed (signal %d); restarting with "
                        "--resume (%d/%d)\n",
                        to_string(w.shard).c_str(),
                        WIFSIGNALED(status) ? WTERMSIG(status) : 0,
                        w.restarts, kMaxRestarts);
            std::fflush(stdout);
          }
          try {
            spawn(opt, w, /*resume=*/true);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "campaign_fleet: %s\n", e.what());
            infra_failure = true;
          }
        } else {
          std::fprintf(stderr,
                       "campaign_fleet: shard %s crashed %d times; "
                       "giving up (its manifest resumes with "
                       "campaign_runner --shard %s --resume)\n",
                       to_string(w.shard).c_str(), w.restarts + 1,
                       to_string(w.shard).c_str());
          w.done = true;
          infra_failure = true;
        }
      }
    }
    if (infra_failure) {
      terminate_all(workers);
      return 2;
    }
  }

  // Merge: validation + unified manifest + aggregates, byte-identical to a
  // single-process run. rsync'd remote shard manifests take the same path
  // via --merge-only.
  campaign::CampaignResult result;
  const std::string base = "BENCH_campaign_" + spec.name;
  const std::string merged = opt.merged_manifest_path.empty()
                                 ? dir + base + ".manifest"
                                 : opt.merged_manifest_path;
  try {
    result = merge_manifests(spec, shard_paths, merged);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_fleet: %s\n", e.what());
    return 2;
  }

  const std::string json_path =
      opt.json_path.empty() ? dir + base + ".json" : opt.json_path;
  const std::string csv_path =
      opt.csv_path.empty() ? dir + base + "_trials.csv" : opt.csv_path;
  {
    std::ofstream json(json_path, std::ios::trunc);
    if (!json) {
      std::fprintf(stderr, "campaign_fleet: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    result.write_json(json);
    std::ofstream csv(csv_path, std::ios::trunc);
    if (!csv) {
      std::fprintf(stderr, "campaign_fleet: cannot write %s\n",
                   csv_path.c_str());
      return 2;
    }
    result.write_csv(csv);
  }
  if (!opt.quiet) {
    std::printf(
        "fleet '%s': %zu trials over %d shards merged, %zu grid points, "
        "%s\naggregates: %s\ntrial log: %s\nmerged manifest: %s\n",
        result.spec.name.c_str(), result.trials.size(), opt.shards,
        result.groups.size(), result.all_ok() ? "all ok" : "FAILURES",
        json_path.c_str(), csv_path.c_str(), merged.c_str());
  }
  return result.all_ok() ? 0 : 1;
}

#else  // _WIN32

int run_fleet(const FleetOptions&) {
  std::fprintf(stderr,
               "campaign_fleet: process supervision requires POSIX "
               "fork/exec; use campaign_runner --shard i/N per process "
               "and merge the manifests\n");
  return 2;
}

#endif

}  // namespace laacad::dist
