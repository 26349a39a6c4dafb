// scale_ladder — wall-clock / memory ladder for the million-node regime.
//
// Runs the campaigns/scale_ladder.cmp rungs (10^3 -> 10^6 uniform nodes,
// k = 2, backend auto) one at a time in ascending size and measures, per
// rung: wall-clock (total and per round), peak RSS
// (common::peak_rss_bytes), and the deterministic kernel counters
// (dist2 evaluations, grid queries) that machine-independent perf gates
// key on. Results land in BENCH_scale_ladder.json.
//
// Usage:
//   scale_ladder [--campaign PATH] [--max-nodes N] [--budget PATH]
//                [--json PATH] [--trial-threads N] [--trace PATH] [--quiet]
//
// --max-nodes caps which rungs run: ctest climbs to 10^5, CI's nightly
// job runs the full ladder. --budget loads campaigns/scale_ladder.budget;
// dist2-evaluation budgets are enforced unconditionally for every
// --trial-threads value (they are deterministic and machine-independent,
// the same contract as the dist^2 regression gates — the thread pool folds
// every worker chunk's counter delta back into the measuring thread, so
// the totals are exact at any thread count), while wall-clock and RSS
// budgets
// apply only when LAACAD_ENFORCE_BUDGET is set in the environment (CI
// runners), so developer laptops never flake on a noisy neighbour.
// --trace writes one Chrome trace-event JSON per rung (path suffixed
// _n<nodes>) and prints that rung's per-stage wall-clock breakdown (grid
// rebuild, region fan-out, movement, ...) in the stdout summary.
// Exit status 0 iff every rung ran ok and every enforced budget held.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/scheduler.hpp"
#include "common/perf_counters.hpp"
#include "common/specparse.hpp"
#include "common/sysinfo.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace laacad;

// Mirror of campaigns/scale_ladder.cmp so the binary is self-contained
// (ctest runs it from the build tree); --campaign swaps in a file.
constexpr const char* kLadderSpec = R"(
name      scale_ladder
trials    1
seed      900
domain    square
side      1000
deploy    uniform
k         2
backend   auto
epsilon   5.0
max_rounds 3
gamma     0
grid_resolution 25
sweep nodes 1000 10000 100000 1000000
)";

struct RungBudget {
  long long nodes = 0;
  double dist2_per_node = 0.0;  ///< dist2_evals / nodes cap; 0 = no cap
  double wall_ms = 0.0;         ///< total wall cap; 0 = no cap
  double rss_mib = 0.0;         ///< peak RSS cap; 0 = no cap
};

struct RungRow {
  long long nodes = 0;
  int rounds = 0;
  bool ok = false;
  std::string error;
  double wall_ms = 0.0;
  double wall_ms_per_round = 0.0;
  std::uint64_t peak_rss = 0;
  /// Exact global event totals for any --trial-threads value: the pool
  /// folds worker-chunk counter deltas back into the measuring thread.
  std::uint64_t dist2_evals = 0;
  std::uint64_t grid_queries = 0;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--campaign PATH] [--max-nodes N] [--budget PATH]\n"
      "          [--json PATH] [--trial-threads N] [--trace PATH]\n"
      "          [--heartbeat] [--quiet]\n"
      "  --campaign PATH   ladder campaign file (default: embedded\n"
      "                    mirror of campaigns/scale_ladder.cmp)\n"
      "  --max-nodes N     skip rungs larger than N nodes\n"
      "  --budget PATH     budget file; dist2 budgets always enforced\n"
      "                    (counters are exact at any thread count),\n"
      "                    wall/RSS only with LAACAD_ENFORCE_BUDGET set\n"
      "  --json PATH       output (default BENCH_scale_ladder.json)\n"
      "  --trial-threads N engine threads inside each rung (0 = hardware);\n"
      "                    output bits never change\n"
      "  --trace PATH      per-rung Chrome trace JSON (suffix _n<nodes>)\n"
      "                    plus a per-stage breakdown in the summary\n"
      "  --heartbeat       stream one {\"hb\":\"ladder\",...} line per\n"
      "                    finished rung to stderr (fleet monitor schema)\n",
      argv0);
}

/// TRACE path for one rung: "_n<nodes>" before the extension, so a ladder
/// run leaves TRACE_ladder_n1000.json, TRACE_ladder_n10000.json, ...
std::string rung_trace_path(const std::string& base, long long n) {
  const std::string suffix = "_n" + std::to_string(n);
  const std::size_t dot = base.rfind('.');
  const std::size_t slash = base.find_last_of("/\\");
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

std::vector<RungBudget> load_budget(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open budget file: " + path);
  std::vector<RungBudget> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream row(line);
    RungBudget b;
    if (!(row >> b.nodes)) continue;  // blank / comment-only line
    if (!(row >> b.dist2_per_node >> b.wall_ms >> b.rss_mib))
      throw std::runtime_error(path + ": line " + std::to_string(lineno) +
                               ": expected 'nodes dist2_per_node wall_ms "
                               "rss_mib'");
    out.push_back(b);
  }
  return out;
}

void write_json(const std::string& path, const std::vector<RungRow>& rows,
                int trial_threads, bool enforce_env) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "scale_ladder: cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"name\": \"scale_ladder\",\n  \"trial_threads\": "
      << trial_threads << ",\n  \"wall_budgets_enforced\": "
      << (enforce_env ? "true" : "false") << ",\n  \"rungs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RungRow& r = rows[i];
    out << "    {\"nodes\": " << r.nodes << ", \"ok\": "
        << (r.ok ? "true" : "false") << ", \"rounds\": " << r.rounds
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"wall_ms_per_round\": " << r.wall_ms_per_round
        << ", \"peak_rss_bytes\": " << r.peak_rss
        << ", \"dist2_evals\": " << r.dist2_evals
        << ", \"grid_queries\": " << r.grid_queries
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string campaign_path;
  std::string budget_path;
  std::string json_path = "BENCH_scale_ladder.json";
  std::string trace_path;
  long long max_nodes = -1;
  int trial_threads = 1;
  bool heartbeat = false;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << "scale_ladder: " << arg << " needs a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--campaign") campaign_path = next();
      else if (arg == "--max-nodes")
        max_nodes = specparse::parse_int(next(), 0, arg, 0);
      else if (arg == "--budget") budget_path = next();
      else if (arg == "--json") json_path = next();
      else if (arg == "--trial-threads")
        trial_threads = specparse::parse_int(next(), 0, arg, 0);
      else if (arg == "--trace") trace_path = next();
      else if (arg == "--heartbeat") heartbeat = true;
      else if (arg == "--quiet") quiet = true;
      else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::cerr << "scale_ladder: unknown argument " << arg << "\n";
        usage(argv[0]);
        return 2;
      }
    }
  } catch (const std::runtime_error& e) {
    std::cerr << "scale_ladder: " << specparse::without_line(e.what())
              << "\n";
    return 2;
  }

  try {
    const campaign::CampaignSpec spec =
        campaign_path.empty()
            ? campaign::parse_campaign_string(kLadderSpec)
            : campaign::load_campaign_file(campaign_path);
    const campaign::Axis* nodes_axis = nullptr;
    for (const campaign::Axis& ax : spec.axes)
      if (ax.key == "nodes") nodes_axis = &ax;
    if (!nodes_axis || spec.axes.size() != 1)
      throw std::runtime_error(
          "scale ladder campaign must sweep exactly one axis: nodes");

    std::vector<RungBudget> budgets;
    if (!budget_path.empty()) budgets = load_budget(budget_path);
    // lint:allow(ambient-env): gates *extra* budget assertions only — rung
    // results and BENCH bytes are identical with or without it
    const bool enforce_env = std::getenv("LAACAD_ENFORCE_BUDGET") != nullptr;

    // --heartbeat emits one fleet-schema line per finished rung (a ladder
    // rung is the natural progress unit — rounds inside a rung belong to
    // the engine's own --trace/--heartbeat story). `total` counts only the
    // rungs that will actually run under --max-nodes.
    std::unique_ptr<obs::HeartbeatEmitter> hb;
    if (heartbeat) {
      int planned = 0;
      for (const std::string& value : nodes_axis->values)
        if (max_nodes < 0 || std::atoll(value.c_str()) <= max_nodes)
          ++planned;
      hb = std::make_unique<obs::HeartbeatEmitter>(
          stderr, "ladder", "scale_ladder", /*shard=*/"", planned);
    }
    int rungs_done = 0;
    int rungs_ok = 0;

    std::vector<RungRow> rows;
    bool all_ok = true;
    for (const std::string& value : nodes_axis->values) {
      const long long n = std::atoll(value.c_str());
      if (max_nodes >= 0 && n > max_nodes) {
        if (!quiet)
          std::printf("rung n=%-8lld skipped (--max-nodes %lld)\n", n,
                      max_nodes);
        continue;
      }
      // One single-rung campaign per ladder step, run serially in
      // ascending size: peak-RSS deltas between rungs stay attributable,
      // and each rung's wall-clock is a plain bracket around run().
      campaign::CampaignSpec rung = spec;
      rung.axes[0].values = {value};
      campaign::CampaignOptions opt;
      opt.workers = 1;
      opt.trial_threads = trial_threads;
      // workers == 1 keeps the trial on this thread, and the engine pool
      // folds its worker chunks' counter deltas back here — so this scope
      // reads exact global totals for any --trial-threads.
      obs::Registry::instance().clear();
      const obs::CounterScope counters;
      if (!trace_path.empty())
        obs::start_trace(rung_trace_path(trace_path, n));
      // lint:allow(wall-clock): per-rung wall bracket feeds the timing
      // fields (wall_ms_per_round), never the deterministic ones
      const auto t0 = std::chrono::steady_clock::now();
      campaign::CampaignScheduler scheduler(std::move(rung), std::move(opt));
      const campaign::CampaignResult result = scheduler.run();
      // lint:allow(wall-clock): closing bracket of the rung wall timer
      const auto t1 = std::chrono::steady_clock::now();
      obs::TraceReport trace_report;
      if (!trace_path.empty()) trace_report = obs::stop_trace();

      RungRow row;
      row.nodes = n;
      row.wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      row.peak_rss = common::peak_rss_bytes();
      const perf::KernelCounters rung_counters = counters.delta();
      row.dist2_evals = rung_counters.dist2_evals;
      row.grid_queries = rung_counters.grid_queries;
      obs::Registry::instance().set_gauge(
          "scale_ladder.peak_rss_mib",
          static_cast<double>(row.peak_rss) / (1024.0 * 1024.0));
      const campaign::TrialResult& trial = result.trials.at(0);
      row.ok = trial.ok;
      row.error = trial.error;
      const double rounds =
          trial.metrics[campaign::metric_index("total_rounds")];
      row.rounds = rounds == rounds ? static_cast<int>(rounds) : 0;
      row.wall_ms_per_round =
          row.rounds > 0 ? row.wall_ms / row.rounds : row.wall_ms;
      if (!row.ok) {
        all_ok = false;
        std::cerr << "scale_ladder: rung n=" << n << " FAILED: "
                  << (row.error.empty() ? "coverage not verified"
                                        : row.error)
                  << "\n";
      } else if (!quiet) {
        std::printf(
            "rung n=%-8lld %2d rounds  %9.1f ms (%8.1f ms/round)  "
            "peak RSS %7.1f MiB  dist2/node %.0f\n",
            n, row.rounds, row.wall_ms, row.wall_ms_per_round,
            static_cast<double>(row.peak_rss) / (1024.0 * 1024.0),
            static_cast<double>(row.dist2_evals) / static_cast<double>(n));
        // Per-stage breakdown from the rung's trace session, heaviest
        // stage first. Wall-clock only — it never enters the BENCH json.
        for (const auto& [stage, total] : trace_report.stages) {
          if (stage == "round" || stage == "trial") continue;  // containers
          std::printf("    stage %-14s %6llu spans %10.1f ms\n",
                      stage.c_str(),
                      static_cast<unsigned long long>(total.count),
                      static_cast<double>(total.total_ns) / 1e6);
        }
      }

      for (const RungBudget& b : budgets) {
        if (b.nodes != n) continue;
        if (b.dist2_per_node > 0.0) {
          const double per_node = static_cast<double>(row.dist2_evals) /
                                  static_cast<double>(n);
          if (per_node > b.dist2_per_node) {
            all_ok = false;
            std::cerr << "scale_ladder: rung n=" << n
                      << " BLEW dist2 budget: " << per_node << " > "
                      << b.dist2_per_node << " evals/node\n";
          }
        }
        if (enforce_env && b.wall_ms > 0.0 && row.wall_ms > b.wall_ms) {
          all_ok = false;
          std::cerr << "scale_ladder: rung n=" << n
                    << " BLEW wall budget: " << row.wall_ms << " > "
                    << b.wall_ms << " ms\n";
        }
        const double rss_mib =
            static_cast<double>(row.peak_rss) / (1024.0 * 1024.0);
        if (enforce_env && b.rss_mib > 0.0 && rss_mib > b.rss_mib) {
          all_ok = false;
          std::cerr << "scale_ladder: rung n=" << n
                    << " BLEW RSS budget: " << rss_mib << " > " << b.rss_mib
                    << " MiB\n";
        }
      }
      if (row.ok) ++rungs_ok;
      rows.push_back(std::move(row));
      ++rungs_done;
      if (hb) hb->tick(rungs_done, rungs_ok);
    }

    write_json(json_path, rows, trial_threads, enforce_env);
    if (!quiet) std::printf("ladder written to %s\n", json_path.c_str());
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "scale_ladder: " << e.what() << "\n";
    return 2;
  }
}
