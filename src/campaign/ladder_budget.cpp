#include "campaign/ladder_budget.hpp"

#include "common/specparse.hpp"

namespace laacad::campaign {

std::vector<RungBudget> load_ladder_budget(const std::string& path) {
  std::vector<RungBudget> out;
  const auto parse_row = [&](const std::vector<std::string>& tok, int line) {
    if (tok.size() != 4)
      specparse::fail(line, "expected 'nodes dist2_per_node wall_ms rss_mib', "
                            "got " + std::to_string(tok.size()) + " fields");
    RungBudget b;
    b.nodes = specparse::parse_int(tok[0], line, "nodes", 1);
    b.dist2_per_node = specparse::parse_double(tok[1], line, "dist2_per_node");
    b.wall_ms = specparse::parse_double(tok[2], line, "wall_ms");
    b.rss_mib = specparse::parse_double(tok[3], line, "rss_mib");
    out.push_back(b);
  };
  specparse::read_file(path, "budget", [&](std::istream& in) {
    specparse::for_each_line(in, parse_row);
  });
  return out;
}

}  // namespace laacad::campaign
