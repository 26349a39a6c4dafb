// Multi-hop communication model over the unit-disk graph (edge iff distance
// <= gamma). Algorithm 2 gathers nodes "within rho" by expanding one hop per
// ring step; this model answers those reachability queries and accounts for
// the messages such gathering would cost in a real WSN.
#pragma once

#include <cstdint>
#include <vector>

#include "wsn/network.hpp"

namespace laacad::common {
class ThreadPool;
}

namespace laacad::wsn {

/// Message accounting for the localized algorithm; aggregated per run so the
/// locality claim (Fig. 2) can be quantified, not just illustrated.
struct CommStats {
  std::uint64_t gather_requests = 0;  ///< ring expansions issued
  std::uint64_t node_reports = 0;     ///< node positions shipped back
  std::uint64_t max_hops_used = 0;    ///< deepest ring over all queries

  void merge(const CommStats& o);
};

class CommModel {
 public:
  /// Snapshot of the network's connectivity at construction time. Rebuild
  /// per round (positions move between rounds). A non-null `pool` builds
  /// the per-node neighbour lists on its threads; each list depends on its
  /// node alone, so the snapshot is the same for every thread count.
  explicit CommModel(const Network& net, common::ThreadPool* pool = nullptr);

  /// Hop distance from i to every node (-1 when unreachable), BFS over the
  /// disk graph, truncated at max_hops (<0 means unbounded).
  std::vector<int> hop_distances(NodeId i, int max_hops = -1) const;

  /// The N(n_i, rho) of Algorithm 2: nodes whose Euclidean distance to i is
  /// < rho, restricted to `ttl` hops of flooding (ttl < 0 = unbounded, i.e.
  /// the paper's idealized gather over the connected component — on a
  /// unit-disk graph a Euclidean-close node can be many hops away).
  /// Logs gather cost into `stats`, including the deepest hop actually
  /// needed to reach a gathered node. Membership is resolved via the
  /// spatial grid and one BFS, capped at `ttl` and exiting once every
  /// candidate is labeled, so the cost is O(neighborhood), not O(network).
  /// Members are returned in ascending id order.
  std::vector<int> gather(NodeId i, double rho, int ttl,
                          CommStats* stats) const;

  /// i's 1-hop neighbours in this snapshot: net.one_hop_neighbors(i).
  const std::vector<int>& neighbors(NodeId i) const {
    return adjacency_[static_cast<std::size_t>(i)];
  }

  const Network& network() const { return *net_; }

 private:
  const Network* net_;
  std::vector<std::vector<int>> adjacency_;
};

}  // namespace laacad::wsn
