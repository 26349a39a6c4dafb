#include "campaign/ladder_budget.hpp"

#include <fstream>
#include <stdexcept>

#include "common/specparse.hpp"

namespace laacad::campaign {

std::vector<RungBudget> load_ladder_budget(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open budget file: " + path);
  std::vector<RungBudget> out;
  std::string line;
  int lineno = 0;
  try {
    while (std::getline(in, line)) {
      ++lineno;
      const std::vector<std::string> tok = specparse::tokenize(line);
      if (tok.empty()) continue;  // blank / comment-only line
      if (tok.size() != 4)
        specparse::fail(lineno,
                        "expected 'nodes dist2_per_node wall_ms rss_mib', "
                        "got " + std::to_string(tok.size()) + " fields");
      RungBudget b;
      b.nodes = specparse::parse_int(tok[0], lineno, "nodes", 1);
      b.dist2_per_node =
          specparse::parse_double(tok[1], lineno, "dist2_per_node");
      b.wall_ms = specparse::parse_double(tok[2], lineno, "wall_ms");
      b.rss_mib = specparse::parse_double(tok[3], lineno, "rss_mib");
      out.push_back(b);
    }
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  return out;
}

}  // namespace laacad::campaign
