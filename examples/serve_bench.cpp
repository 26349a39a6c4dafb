// serve_bench — open-loop load generator for laacad_serve.
//
//   serve_bench [options]     (--help lists them)
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
// command, no orchestration. Every workload setting (request count, rate,
// connections, seed, mix) lives in the .wl file and the server's engine
// threads in the --scn file; a sweep writes one .wl per point.
//
// Exit status: 0 on a clean run, 1 if any protocol or transport errors
// were tallied (ctest treats a nonzero error count as failure), 2 on usage
// or setup problems, including a malformed or out-of-range spec value.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "embedded_specs.hpp"
#include "scenario/spec.hpp"
#include "serve/bench.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace {
using namespace laacad;
}  // namespace

int main(int argc, char** argv) {
  std::string wl_path, out_path = "BENCH_serve_latency.json", scn_path;
  bool quiet = false;
  cli::Parser cli("serve_bench");
  cli.flag("--wl", "PATH", "workload (default: embedded serve_mix)", &wl_path)
      .flag("--out", "PATH", "report (default BENCH_serve_latency.json)",
            &out_path)
      .flag("--scn", "PATH", "in-process server's base spec; sets query side",
            &scn_path)
      .flag("--quiet", "print no summary on stderr", &quiet);
  if (const auto status = cli.parse(argc, argv)) return *status;

  try {
    const serve::WorkloadSpec wl =
        wl_path.empty() ? serve::parse_workload_string(kServeMixWorkload)
                        : serve::load_workload_file(wl_path);

    const scenario::ScenarioSpec spec =
        scn_path.empty() ? scenario::parse_scenario_string(kServeBaseSpec)
                         : scenario::load_scenario_file(scn_path);

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
