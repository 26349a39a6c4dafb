// Uniform hash grid over node positions: radius queries and k-nearest
// queries in (near) constant time per result for the densities this project
// simulates. Used by the Voronoi solvers and the communication model.
//
// Storage is CSR ("structure of arrays"): point indices are sorted into
// cell-major slot order once per rebuild, and the slot-ordered coordinate
// arrays px_/py_ are what the query loops scan — every candidate distance
// evaluation reads two contiguous doubles instead of chasing a
// vector<vector<int>> bucket, so the dist² inner loops vectorize and a
// rebuild is two counting passes instead of n push_backs. rebuild() can
// fan those passes across a common::ThreadPool; the count-then-scatter
// scheme reserves each thread's slot range up front, so the final slot
// order (cell-major, ascending point index within a cell) is a pure
// function of the input for every thread count, serial included.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "geometry/polygon.hpp"
#include "geometry/vec2.hpp"

namespace laacad::common {
class ThreadPool;
}

namespace laacad::wsn {

class SpatialGrid {
 public:
  /// Empty grid; every query returns nothing until rebuild() is called.
  SpatialGrid() = default;

  /// Build over a fixed snapshot of positions. `cell_size` should be on the
  /// order of the typical query radius; callers re-bin per round (positions
  /// move every round anyway).
  SpatialGrid(const std::vector<geom::Vec2>& points, double cell_size);

  /// Re-bin over a new snapshot without reallocating (slot arrays are
  /// resized in place, the common case between consecutive rounds being a
  /// no-op). A non-null `pool` fans the cell-id and scatter passes across
  /// its threads; the resulting arrays are bit-identical for every thread
  /// count. Queries issued concurrently with rebuild() are undefined —
  /// callers synchronize (see Network::grid()).
  void rebuild(const std::vector<geom::Vec2>& points, double cell_size,
               common::ThreadPool* pool = nullptr);

  /// Indices of points with dist(p, q) <= radius (including any point equal
  /// to q itself), sorted ascending by index.
  std::vector<int> within(geom::Vec2 q, double radius) const;

  /// within(q, radius) is non-empty: the same predicate and scan window,
  /// but it allocates nothing and stops at the first hit.
  bool any_within(geom::Vec2 q, double radius) const;

  /// Appends (dist2(p, q), index) for every point within `radius` of q into
  /// `out` (cleared first), sorted by (dist2, index) — the canonical
  /// nearest-first order shared with k_nearest(). Lets callers that need a
  /// distance-ordered candidate list (the order-k Voronoi kernel) reuse one
  /// scratch buffer and one sort instead of re-deriving distances.
  void collect_within(geom::Vec2 q, double radius,
                      std::vector<std::pair<double, int>>& out) const;

  /// Indices of the k nearest points to q, sorted by distance ascending
  /// (ties broken by ascending index, matching vor::k_nearest_brute exactly).
  /// `exclude` (if >= 0) is skipped — used for "k nearest other nodes".
  /// Correct for any q, including query points outside the points' bounding
  /// box.
  std::vector<int> k_nearest(geom::Vec2 q, int k, int exclude = -1) const;

  std::size_t size() const { return n_; }
  double cell_size() const { return cell_; }

  /// CSR internals, exposed for the rebuild-determinism tests: slot j holds
  /// point order()[j] at (slot_x()[j], slot_y()[j]); cell c owns slots
  /// [cell_start()[c], cell_start()[c+1]).
  const std::vector<int>& order() const { return order_; }
  const std::vector<int>& cell_start() const { return cell_start_; }
  const std::vector<double>& slot_x() const { return px_; }
  const std::vector<double>& slot_y() const { return py_; }

 private:
  std::pair<int, int> cell_of(double x, double y) const;
  int cell_index(int cx, int cy) const;
  /// The one radius scan: the clamped window of cell rows around q, calling
  /// hit(dist2, index) for every point within `radius` except `exclude`
  /// (-1 = none), in slot order; a hit that returns bool stops the scan by
  /// returning true. Books the distance evaluations.
  template <class Hit>
  void scan(geom::Vec2 q, double radius, int exclude, Hit&& hit) const;
  void gather(geom::Vec2 q, double radius, int exclude,
              std::vector<std::pair<double, int>>& out) const;

  std::size_t n_ = 0;
  double cell_ = 1.0;
  geom::Vec2 origin_;
  int nx_ = 1, ny_ = 1;
  std::vector<double> px_, py_;    ///< coordinates in slot order
  std::vector<int> order_;         ///< slot -> original point index
  std::vector<int> cell_start_;    ///< nx_*ny_ + 1 slot offsets
  std::vector<int> cell_id_;       ///< rebuild scratch: point -> cell
};

}  // namespace laacad::wsn
