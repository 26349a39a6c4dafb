#include "wsn/connectivity.hpp"

#include <algorithm>
#include <queue>

namespace laacad::wsn {

ConnectivityReport analyze_connectivity(const Network& net,
                                        double radio_range) {
  ConnectivityReport rep;
  const int n = net.size();
  if (n == 0) return rep;

  // One pass: the BFS dequeues every node exactly once, and that node's
  // neighbour list yields both its degree and its BFS edges. Degrees are
  // integers, so their double sum (and the mean) is exact in any order.
  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  Summary degrees;
  rep.min_degree = n;
  for (int s = 0; s < n; ++s) {
    if (comp[static_cast<std::size_t>(s)] >= 0) continue;
    const int id = rep.components++;
    int size = 0;
    std::queue<int> q;
    comp[static_cast<std::size_t>(s)] = id;
    q.push(s);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      ++size;
      auto nb = net.nodes_within(net.position(u), radio_range);
      std::erase(nb, u);
      const int deg = static_cast<int>(nb.size());
      degrees.add(deg);
      rep.min_degree = std::min(rep.min_degree, deg);
      for (int v : nb) {
        if (comp[static_cast<std::size_t>(v)] < 0) {
          comp[static_cast<std::size_t>(v)] = id;
          q.push(v);
        }
      }
    }
    rep.largest_component = std::max(rep.largest_component, size);
  }
  rep.mean_degree = degrees.mean();
  return rep;
}

}  // namespace laacad::wsn
