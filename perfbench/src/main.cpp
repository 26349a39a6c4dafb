// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--tiny] [--data-dir DIR] [--record-pool]
//
// Prints "digest <name> <hex>" lines, then the result line as the last line
// of stdout. Exit status: 0 when every correctness gate held, 1 when one
// failed (the result line is still printed), 2 on usage or setup errors
// (no result line).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload deploy_global|deploy_localized|"
               "campaign_matrix\n"
               "                 --seed N --seconds S --trace 0|1 [--tiny]\n"
               "                 [--data-dir DIR] [--record-pool]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.data_dir = "perfbench";
  opt.threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (arg == "--record-pool") {
      opt.record_pool = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string v = argv[++i];
    if (arg == "--workload") opt.workload = v;
    else if (arg == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (arg == "--trace") opt.trace = v != "0";
    else if (arg == "--data-dir") opt.data_dir = v;
    else {
      usage();
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    usage();
    return 2;
  }

  perfbench::Result res;
  try {
    if (opt.workload == "deploy_global") perfbench::run_deploy(opt, false, res);
    else if (opt.workload == "deploy_localized")
      perfbench::run_deploy(opt, true, res);
    else if (opt.workload == "campaign_matrix") perfbench::run_campaign(opt, res);
    else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << '\n';
    return 2;
  }
  std::cout.flush();
  res.print(std::cout);
  return res.correct() ? 0 : 1;
}
