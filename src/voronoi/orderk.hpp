// Order-k Voronoi cells and dominating regions (Sec. III-C of the paper).
//
// Representation: the order-k Voronoi cell of a k-subset H of sites is
//
//   V_H = { v : max_{h in H} |v - u_h|  <=  min_{j not in H} |v - u_j| }
//       = intersection over (h in H, j not in H) of the bisector half-plane
//         keeping h's side,
//
// a convex polygon. The *dominating region* of site i (paper notation
// V^k_{n_i}) is the union of all nonempty V_H with i in H, equivalently
// { v : at most k-1 other sites are strictly closer to v than i }
// (Proposition 1). We enumerate the union by breadth-first search over the
// cell adjacency graph: an edge on bisector(h, j), h in H, j not in H,
// separates V_H from V_{H - h + j} (D. T. Lee, "On k-nearest neighbor
// Voronoi diagrams in the plane", IEEE Trans. Computers C-31(6), 1982). The
// clip that builds a cell labels each edge with the pair whose bisector
// created it, so the neighbouring generator set is derived, not located;
// a bisector that touches a cell without cutting it is crossed as well.
//
// Validity of the restricted BFS rests on the dominating region being
// star-shaped with respect to u_i: any site that beats i at a point w on
// the segment [u_i, v] also beats i at v (a half-plane that contains w but
// not u_i must contain the whole ray beyond w), so the count of closer
// sites is monotone along rays from u_i. This is property-tested in
// tests/test_orderk.cpp.
// Kernel acceleration (this file's second half): every entry point exists in
// two equivalent implementations. The *brute* path sorts all n out-sites per
// BFS cell and seeds with k_nearest_brute — the straightforward
// transcription of the construction above, kept as the reference for
// candidate gathering (an exhaustive per-subset construction in the tests
// is the reference for adjacency). The *grid* path routes every seed query
// through a wsn::SpatialGrid and clips each cell against a distance-bounded
// candidate list gathered from the grid in expanding rings. Both paths take
// out-sites in ascending distance from the reference generator and stop at
// the first one past either of two bounds (rv = max vertex distance of the
// cell from the reference, R_H = max vertex distance from any generator,
// dmax = generator spread): the Lemma bound 2 rv + dmax, and the CellBound
// certificate rv + R_H + slack below. Once the gather radius R reaches the
// certificate, any site beyond R stops the scan outright, so the two paths
// clip the same sites in the same order and produce bit-identical cells
// (asserted against each other in Debug builds; if every site is gathered
// before the bound closes, the gather has degenerated to the exhaustive
// list, counted as a kernel_fallback). The default entry points pick the
// grid path automatically above a small site count, reusing a thread-local
// scratch grid, so all callers — the adaptive Lemma-1 solver, the localized
// Algorithm-2 solver, tests, benches — share one accelerated kernel.
#pragma once

#include <vector>

#include "geometry/polygon.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::vor {

/// One convex piece of an order-k Voronoi diagram.
struct OrderKCell {
  std::vector<int> gens;  ///< Sorted generator indices (|gens| = k).
  geom::Ring poly;        ///< Convex polygon (CCW), clipped to the window.

  double area() const { return geom::area(poly); }
};

/// Cell of an explicit generator set, clipped to the convex `window`.
/// `others` lists candidate out-sites sorted by ascending distance from the
/// first generator (pass all non-H sites; pruning is internal and stops at
/// the first out-site past its bound). Equal distances may come in any
/// order; a list whose distance decreases somewhere throws
/// std::invalid_argument naming that position. Returns an empty ring when
/// the cell is empty within the window.
geom::Ring order_k_cell(const std::vector<geom::Vec2>& sites,
                        const std::vector<int>& gens,
                        const std::vector<int>& others_sorted,
                        const geom::Ring& window);

/// All cells forming the dominating region of site i at order k, clipped to
/// `window`. `sites` must be degeneracy-free (see separate_sites). The
/// window must be convex and should contain u_i. Uses the grid-accelerated
/// kernel (over a thread-local scratch grid) when the site count warrants
/// it; output is bit-identical to dominating_region_cells_brute either way.
std::vector<OrderKCell> dominating_region_cells(
    const std::vector<geom::Vec2>& sites, int i, int k,
    const geom::Ring& window);

/// Same, against a caller-owned spatial index over exactly `sites` (same
/// order): lets per-round owners (RegionProvider backends, benches) amortize
/// the grid build across many queries.
std::vector<OrderKCell> dominating_region_cells(
    const std::vector<geom::Vec2>& sites, const wsn::SpatialGrid& grid, int i,
    int k, const geom::Ring& window);

/// Exhaustive reference kernel (full per-cell candidate sort, brute-force
/// seeding). Kept for cross-validation in tests and as the micro-bench
/// baseline the grid kernel's dist2-eval reduction is measured against.
std::vector<OrderKCell> dominating_region_cells_brute(
    const std::vector<geom::Vec2>& sites, int i, int k,
    const geom::Ring& window);

/// Every nonempty order-k cell within the window (full-diagram enumeration;
/// used for diagram statistics, Fig. 1, and cross-validation in tests).
/// Same auto grid acceleration as dominating_region_cells.
std::vector<OrderKCell> enumerate_order_k_cells(
    const std::vector<geom::Vec2>& sites, int k, const geom::Ring& window);

/// Enumeration against a caller-owned index over `sites`.
std::vector<OrderKCell> enumerate_order_k_cells(
    const std::vector<geom::Vec2>& sites, const wsn::SpatialGrid& grid, int k,
    const geom::Ring& window);

/// Exhaustive reference enumeration.
std::vector<OrderKCell> enumerate_order_k_cells_brute(
    const std::vector<geom::Vec2>& sites, int k, const geom::Ring& window);

// ------------------------------------------------ pruning certificates ----
//
// The cell engine bounds each cell ring of a generator set H by distances
// that certify, in O(1), answers that would otherwise cost an O(ring)
// bisector scan or a grid query. A certificate only ever answers "this
// bisector leaves every vertex inside": whatever it skips,
// geom::bisector_side would have classified kInside (no cut, no touch), so
// cells, edge labels, cuts and touches stay bit-identical. Exposed for the
// property tests in tests/test_orderk.cpp.

/// Bounds of one cell ring. ref = u_{H.front()}; rv = max |v - ref| over
/// the ring's vertices v; (c, r_c) is the disk circumscribing their
/// bounding box; R_h bounds max |v - u_h| (rv for ref, |u_h - c| + r_c for
/// the other generators) and R_H = max R_h.
///  - stop: an out-site j with |u_j - ref| > rv + R_H + slack is farther
///    than every generator from every vertex by more than slack
///    (|v - u_j| >= |u_j - ref| - rv), and so is every farther out-site;
///  - reject: the pair (h, j) alone, when |u_j - c| > R_h + r_c + slack or
///    |u_j - ref| > R_h + rv + slack.
/// A vertex nearer u_h than u_j by more than slack lies more than slack / 2
/// inside their bisector, and slack exceeds 2 (kEps + the classifier's
/// band) plus every rounding involved (see orderk.cpp). A clip only
/// shrinks a ring (new vertices lie on old edges), so a bound fitted to an
/// earlier ring of the same cell stays valid.
class CellBound {
 public:
  /// Fit to `ring`, a non-empty cell ring of the generators `gens` (ref =
  /// gens.front()), in one pass over the ring: |ring| + |gens| - 1 dist2
  /// evaluations, counted.
  void fit(const std::vector<geom::Vec2>& sites, const std::vector<int>& gens,
           const geom::Ring& ring);

  /// rv^2 (NaN when a vertex is NaN).
  double rv2() const { return rv2_; }
  /// The stop radius rv + R_H + slack around ref (+inf: never).
  double stop_radius() const { return stop_; }
  /// Stop certificate for an out-site at dist2 `s2` from ref.
  bool stops(double s2) const { return s2 > stop2_; }
  /// The disk's centre.
  geom::Vec2 centre() const { return centre_; }
  /// Reject certificate for the pair (gens[g], j), where `s2` and `c2` are
  /// u_j's dist2 from ref and from the centre.
  bool rejects(std::size_t g, double s2, double c2) const {
    return c2 > reach_[g].centre2 || s2 > reach_[g].ref2;
  }

 private:
  struct Reach {
    double centre2 = 0, ref2 = 0;  // the two reject limits, squared
  };
  double rv2_ = 0;
  double stop_ = 0, stop2_ = 0;
  geom::Vec2 centre_;
  std::vector<Reach> reach_;  // per generator
};

/// Offset of the eight probe seeds a dominating-region traversal places
/// around u_i to guard against ties at u_i itself.
inline constexpr double kSeedProbeOffset = 1e-5;

/// Seed certificate. `nearest` lists the k + 1 sites nearest u_i in
/// (dist2, index) order (fewer only when there are no more sites). When i
/// is among the first k and the (k+1)-th lies farther than the k-th by more
/// than 2 kSeedProbeOffset + slack, every probe point's k nearest are that
/// same set, so each probe seed repeats the first seed; returns true then.
bool seed_probes_redundant(const std::vector<geom::Vec2>& sites, int i, int k,
                           const std::vector<int>& nearest);

}  // namespace laacad::vor
