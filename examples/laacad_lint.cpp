// laacad_lint — the in-tree determinism linter. Lexes every .hpp/.cpp
// under ROOT (default: src), resolves the per-directory rule policy, and
// exits nonzero on any finding that is not covered by a justified
// `// lint:allow(<rule>): <reason>` escape. Findings print as
// `file:line rule message`; every suppression that fired is listed in
// the summary so exemptions stay reviewable.
//
//   laacad_lint [--policy FILE] [ROOT]
//
// With no --policy, ROOT/../.lint-policy is used when present (the repo
// layout: policy beside src/), else the built-in base rules.
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "lint/linter.hpp"
#include "lint/policy.hpp"

int main(int argc, char** argv) {
  std::string policy_path;
  std::string root = "src";
  laacad::cli::Parser cli("laacad_lint");
  cli.positional("ROOT", /*required=*/false, &root)
      .flag("--policy", "FILE", "rule policy (default: ROOT/../.lint-policy)",
            &policy_path);
  if (const auto status = cli.parse(argc, argv)) return *status;

  try {
    namespace fs = std::filesystem;
    laacad::lint::Policy policy;
    if (!policy_path.empty()) {
      policy = laacad::lint::Policy::load(policy_path);
    } else {
      const fs::path beside = fs::path(root).parent_path() / ".lint-policy";
      if (fs::exists(beside))
        policy = laacad::lint::Policy::load(beside.string());
    }

    laacad::lint::Linter linter(policy);
    linter.add_directory(root);
    const auto result = linter.run();
    laacad::lint::write_report(std::cout, result);
    return result.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "laacad_lint: " << e.what() << "\n";
    return 2;
  }
}
