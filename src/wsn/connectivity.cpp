#include "wsn/connectivity.hpp"

#include <algorithm>
#include <queue>

namespace laacad::wsn {

ConnectivityReport analyze_connectivity(const Network& net,
                                        double radio_range) {
  ConnectivityReport rep;
  const int n = net.size();
  if (n == 0) return rep;

  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  Summary degrees;
  rep.min_degree = n;
  for (int i = 0; i < n; ++i) {
    auto nb = net.nodes_within(net.position(i), radio_range);
    std::erase(nb, i);
    const int deg = static_cast<int>(nb.size());
    degrees.add(deg);
    rep.min_degree = std::min(rep.min_degree, deg);
  }
  rep.mean_degree = degrees.mean();

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
      for (int v : nb) {
        if (comp[static_cast<std::size_t>(v)] < 0) {
          comp[static_cast<std::size_t>(v)] = id;
          q.push(v);
        }
      }
    }
    rep.largest_component = std::max(rep.largest_component, size);
  }
  return rep;
}

std::vector<int> nodes_within_sensing_range(const Network& net) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(net.size()));
  for (NodeId i = 0; i < net.size(); ++i) {
    out.push_back(static_cast<int>(
        net.nodes_within(net.position(i), net.sensing_range(i)).size()));
  }
  return out;
}

}  // namespace laacad::wsn
