#include "wsn/comm.hpp"

#include <algorithm>
#include <queue>

#include "common/thread_pool.hpp"

namespace laacad::wsn {

namespace {

// Per-thread BFS scratch reused across gather calls; epoch stamps make the
// per-call clear O(1) instead of O(n). Thread-local because the engine
// issues gathers from its worker pool.
struct GatherScratch {
  std::vector<std::uint32_t> stamp;   // BFS-visited, valid when == epoch
  std::vector<std::uint32_t> member;  // Euclidean target set, == epoch
  std::vector<int> depth;             // BFS depth, valid when stamp == epoch
  std::vector<int> queue;
  std::uint32_t epoch = 0;
};

GatherScratch& gather_scratch() {
  static thread_local GatherScratch s;
  return s;
}

}  // namespace

void CommStats::merge(const CommStats& o) {
  gather_requests += o.gather_requests;
  node_reports += o.node_reports;
  max_hops_used = std::max(max_hops_used, o.max_hops_used);
}

CommModel::CommModel(const Network& net, common::ThreadPool* pool)
    : net_(&net) {
  adjacency_.resize(static_cast<std::size_t>(net.size()));
  common::parallel_for(pool, net.size(), [&](int i) {
    adjacency_[static_cast<std::size_t>(i)] = net.one_hop_neighbors(i);
  });
}

std::vector<int> CommModel::hop_distances(NodeId i, int max_hops) const {
  const int n = net_->size();
  std::vector<int> d(static_cast<std::size_t>(n), -1);
  std::queue<int> q;
  d[static_cast<std::size_t>(i)] = 0;
  q.push(i);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    const int du = d[static_cast<std::size_t>(u)];
    if (max_hops >= 0 && du >= max_hops) continue;
    for (int v : adjacency_[static_cast<std::size_t>(u)]) {
      if (d[static_cast<std::size_t>(v)] < 0) {
        d[static_cast<std::size_t>(v)] = du + 1;
        q.push(v);
      }
    }
  }
  return d;
}

std::vector<int> CommModel::gather(NodeId i, double rho, int ttl,
                                   CommStats* stats) const {
  // Membership is Euclidean (< rho) plus reachability from i within ttl
  // hops. Resolve the Euclidean set with a grid query instead of an O(n)
  // scan, then BFS outward from i, exiting early once every member has been
  // labeled; a node at depth ttl is labeled but not expanded. BFS assigns
  // true shortest-hop depths, so max_hops_used is exact, and an unreachable
  // member simply drains i's (ttl-capped) component.
  const geom::Vec2 ui = net_->position(i);
  std::vector<int> targets = net_->nodes_within(ui, rho);
  std::sort(targets.begin(), targets.end());
  GatherScratch& s = gather_scratch();
  const std::size_t n = static_cast<std::size_t>(net_->size());
  if (s.stamp.size() < n) {
    s.stamp.assign(n, 0);
    s.member.assign(n, 0);
    s.depth.resize(n);
    s.epoch = 0;
  }
  if (++s.epoch == 0) {  // stamp wrap: hard-reset once every 2^32 calls
    std::fill(s.stamp.begin(), s.stamp.end(), 0u);
    std::fill(s.member.begin(), s.member.end(), 0u);
    s.epoch = 1;
  }
  const std::uint32_t epoch = s.epoch;
  int wanted = 0;
  for (int j : targets) {
    if (j == i) continue;
    // The strict test: the grid query over-approximates with <=.
    if (geom::dist_lt(net_->position(j), ui, rho)) {
      s.member[static_cast<std::size_t>(j)] = epoch;
      ++wanted;
    }
  }
  s.queue.clear();
  s.queue.push_back(i);
  s.stamp[static_cast<std::size_t>(i)] = epoch;
  s.depth[static_cast<std::size_t>(i)] = 0;
  int found = 0;
  for (std::size_t head = 0; head < s.queue.size() && found < wanted;
       ++head) {
    const int u = s.queue[head];
    const int du = s.depth[static_cast<std::size_t>(u)];
    if (ttl >= 0 && du >= ttl) break;  // BFS order: the rest are at ttl too
    for (int v : adjacency_[static_cast<std::size_t>(u)]) {
      const std::size_t vz = static_cast<std::size_t>(v);
      if (s.stamp[vz] == epoch) continue;
      s.stamp[vz] = epoch;
      s.depth[vz] = du + 1;
      if (s.member[vz] == epoch) ++found;
      s.queue.push_back(v);
    }
  }
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(found));
  int deepest = 0;
  for (int j : targets) {
    const std::size_t jz = static_cast<std::size_t>(j);
    if (s.member[jz] == epoch && s.stamp[jz] == epoch) {
      out.push_back(j);
      deepest = std::max(deepest, s.depth[jz]);
    }
  }
  if (stats) {
    ++stats->gather_requests;
    stats->node_reports += out.size();
    stats->max_hops_used = std::max<std::uint64_t>(
        stats->max_hops_used, static_cast<std::uint64_t>(deepest));
  }
  return out;
}

}  // namespace laacad::wsn
