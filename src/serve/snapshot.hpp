// Immutable published state of the serving daemon.
//
// The round loop mutates the live wsn::Network continuously; read queries
// must never block it (or each other). The classic epoch-swap solves both:
// after each publish point the service builds a `Snapshot` — an owned copy
// of the domain and network with the spatial grid pre-warmed — and swaps it
// into a shared_ptr. Readers grab the pointer (one mutex-protected copy),
// then query the frozen state lock-free for as long as they like; the old
// epoch dies when its last reader drops it.
//
// Every answer a snapshot gives is internally consistent with exactly one
// publish point — the "consistent with some published epoch" guarantee the
// concurrency stress test asserts.
#pragma once

#include <memory>
#include <vector>

#include "wsn/energy.hpp"
#include "wsn/network.hpp"

namespace laacad::serve {

/// One k-NN answer entry.
struct NeighborInfo {
  int id = -1;
  geom::Vec2 pos{0.0, 0.0};
  double sensing_range = 0.0;
  double dist = 0.0;  ///< to the query point
};

class Snapshot {
 public:
  /// Metadata stamped at the publish point.
  struct Meta {
    std::uint64_t epoch = 0;  ///< publish sequence number, monotonic
    int global_round = 0;
    int phase = 0;
    int events_applied = 0;
    bool converged = false;
    bool aborted = false;
    /// True when sensing ranges are tuned for the current positions (the
    /// publish followed Engine::finalize); mid-phase publishes carry the
    /// previous phase's ranges.
    bool finalized = false;
  };

  /// Deep-copies domain + positions + sensing ranges from the live network
  /// and warms the spatial grid, so readers never pay (or race on) the lazy
  /// grid build.
  Snapshot(const wsn::Domain& domain, const wsn::Network& live, Meta meta);

  const Meta& meta() const { return meta_; }
  int size() const { return net_->size(); }
  double gamma() const { return net_->gamma(); }
  const wsn::LoadReport& load() const { return load_; }
  const wsn::Network& network() const { return *net_; }
  const wsn::Domain& domain() const { return *domain_; }

  /// The k nodes nearest to q (fewer when the network is smaller), sorted
  /// by distance — the GetClosestNodes serving interface.
  std::vector<NeighborInfo> closest_nodes(geom::Vec2 q, int k) const;

  /// Sensing-coverage depth at q: how many nodes' sensing disks contain it.
  int coverage_depth(geom::Vec2 q) const;

 private:
  Meta meta_;
  std::unique_ptr<wsn::Domain> domain_;
  std::unique_ptr<wsn::Network> net_;
  wsn::LoadReport load_;
};

}  // namespace laacad::serve
