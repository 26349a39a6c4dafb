// Scale-ladder budget rows (campaigns/scale_ladder.budget): one line per
// rung, `nodes dist2_per_node wall_ms rss_mib`, '#' comments. The
// scale_ladder tool gates its rungs against these rows, and the test suite
// reads the same file, so the caps live in exactly one place.
#pragma once

#include <string>
#include <vector>

namespace laacad::campaign {

struct RungBudget {
  long long nodes = 0;
  double dist2_per_node = 0.0;  ///< dist2_evals / nodes cap; 0 = no cap
  double wall_ms = 0.0;         ///< total wall cap; 0 = no cap
  double rss_mib = 0.0;         ///< peak RSS cap; 0 = no cap
};

/// Rows of `nodes dist2_per_node wall_ms rss_mib`, parsed strictly: a
/// malformed value or a wrong field count throws "<path>: line N: ...".
std::vector<RungBudget> load_ladder_budget(const std::string& path);

}  // namespace laacad::campaign
