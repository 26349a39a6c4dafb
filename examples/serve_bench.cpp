// serve_bench — open-loop load generator for laacad_serve.
//
//   serve_bench [--wl PATH] [--out PATH] [--scn PATH] [--threads N]
//               [--requests N] [--rate R] [--connections C] [--seed S]
//               [--quiet]
//
// Replays a declarative `.wl` workload (bench/workloads/*.wl; default:
// serve_mix.wl, embedded at build time) over real loopback TCP and writes
// BENCH_serve_latency.json: per-verb client-side percentiles measured
// coordinated-omission-safely from *scheduled* send times, plus the
// server's own queue/query/serialize breakdown pulled from its final
// `stats` response.
//
// The bench owns the server: it starts an in-process CoverageService +
// TcpServer on an ephemeral port and shuts it down when done — one
// command, no orchestration.
//
// Exit status: 0 on a clean run, 1 if any protocol or transport errors
// were tallied (ctest treats a nonzero error count as failure), 2 on usage
// or setup problems, including a malformed or out-of-range flag value.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/specparse.hpp"
#include "embedded_specs.hpp"
#include "scenario/spec.hpp"
#include "serve/bench.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace {

using namespace laacad;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--wl PATH] [--out PATH] [--scn PATH] [--threads N]\n"
      "          [--requests N] [--rate R] [--connections C] [--seed S]\n"
      "          [--quiet]\n"
      "  --wl PATH         workload file (default: embedded serve_mix)\n"
      "  --out PATH        report path (default: BENCH_serve_latency.json)\n"
      "  --scn PATH        base spec for the in-process server, and the\n"
      "                    side length query coordinates draw from\n"
      "  --threads N       engine threads for the in-process server\n"
      "  --requests/--rate/--connections/--seed\n"
      "                    override the corresponding workload fields\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string wl_path, out_path = "BENCH_serve_latency.json", scn_path;
  std::optional<int> threads, requests, connections;
  std::optional<double> rate;
  std::optional<std::uint64_t> seed;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "serve_bench: %s needs a value\n",
                       arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--wl") wl_path = next();
      else if (arg == "--out") out_path = next();
      else if (arg == "--scn") scn_path = next();
      else if (arg == "--threads")
        threads = specparse::parse_int(next(), 0, arg, 0);
      else if (arg == "--requests")
        requests = specparse::parse_int(next(), 0, arg, 1);
      else if (arg == "--rate") rate = specparse::parse_double(next(), 0, arg);
      else if (arg == "--connections")
        connections = specparse::parse_int(next(), 0, arg, 1);
      else if (arg == "--seed") seed = specparse::parse_uint64(next(), 0, arg);
      else if (arg == "--quiet") quiet = true;
      else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::fprintf(stderr, "serve_bench: unknown argument %s\n",
                     arg.c_str());
        usage(argv[0]);
        return 2;
      }
    }
    if (rate && !(*rate >= 0.0))
      specparse::fail(0, "'--rate' expects a number >= 0");
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "serve_bench: %s\n",
                 specparse::without_line(e.what()).c_str());
    return 2;
  }

  try {
    serve::WorkloadSpec wl =
        wl_path.empty() ? serve::parse_workload_string(kServeMixWorkload)
                        : serve::load_workload_file(wl_path);
    if (requests) wl.requests = *requests;
    if (rate) wl.rate = *rate;
    if (connections) wl.connections = *connections;
    if (seed) wl.seed = *seed;

    scenario::ScenarioSpec spec =
        scn_path.empty() ? scenario::parse_scenario_string(kServeBaseSpec)
                         : scenario::load_scenario_file(scn_path);
    if (threads) spec.num_threads = *threads;

    serve::ServeConfig cfg;
    cfg.spec = spec;
    serve::CoverageService svc(std::move(cfg));
    svc.start();
    serve::TcpServer server(svc, /*port=*/0);
    std::thread server_thread([&] { server.serve(); });
    const serve::BenchResult result =
        serve::run_bench(wl, spec.side, server.port());
    server_thread.join();

    std::ofstream out(out_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open " + out_path);
    serve::write_bench_report(result, out);

    std::uint64_t errors = result.transport_errors;
    for (const serve::BenchVerbStats& v : result.per_op) errors += v.errors;
    if (!quiet) {
      const serve::BenchVerbStats& knn = result.per_op[0];
      std::fprintf(stderr,
                   "serve_bench: %s -> %s\n"
                   "  %llu/%llu responses, %.0f req/s achieved (%s), "
                   "%llu errors\n"
                   "  knn p50/p99: %.0f/%.0f us\n",
                   wl.name.c_str(), out_path.c_str(),
                   static_cast<unsigned long long>(result.received),
                   static_cast<unsigned long long>(result.sent),
                   result.achieved_rate_per_s,
                   wl.rate > 0.0 ? "open loop" : "closed loop",
                   static_cast<unsigned long long>(errors),
                   static_cast<double>(knn.latency.value_at(0.50)) / 1e3,
                   static_cast<double>(knn.latency.value_at(0.99)) / 1e3);
    }
    return errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
