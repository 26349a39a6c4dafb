// Adaptive exact dominating-region solver built on Lemma 1.
//
// Lemma 1 (paper): if the dominating region of n_i is enclosed by the circle
// (u_i, rho/2), it is fully determined by the sites within (u_i, rho).
// Pointwise form used here: for any v with |v - u_i| <= rho/2, a site
// farther than rho from u_i is at distance >= rho/2 >= |v - u_i| from v, so
// it can never beat i at v — membership inside the rho/2 disk is exact with
// the local site set.
//
// The solver therefore gathers sites within rho, computes the region clipped
// to (disk(u_i, rho/2) ∩ area bbox), and doubles rho while any region vertex
// reaches the rho/2 boundary. The area-bbox clip bounds regions of nodes
// near the boundary of A, whose raw dominating regions extend to infinity.
// Once every site is gathered the region is exact in the whole bbox and the
// disk window is dropped.
//
// This mirrors Algorithm 2's expanding ring with the hop granularity
// replaced by geometric doubling; the hop-faithful variant lives in
// laacad/localized.*.
#pragma once

#include "geometry/polygon.hpp"
#include "voronoi/orderk.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::vor {

struct RegionResult {
  std::vector<OrderKCell> cells;  ///< convex pieces of V^k_i ∩ area bbox
  double rho = 0.0;               ///< gather radius that certified the result
  int expansions = 0;             ///< number of radius doublings
  bool used_all_sites = false;    ///< fell back to the global site set

  bool empty() const { return cells.empty(); }
};

/// The Lemma-1 window both region solvers clip to: the circumscribed
/// 48-gon of disk(center, radius), intersected with `area_bbox` inflated by
/// 1 m. The n-gon is circumscribed so its apothem equals `radius`: any
/// window-clipped vertex lies at distance >= radius, which is exactly what
/// region_touches_ring detects.
geom::Ring lemma1_window(geom::Vec2 center, double radius,
                         const geom::BBox& area_bbox);

/// The Lemma-1 expansion trigger: true when some vertex of `cells` reaches
/// the rho/2 ring around `center`, so a wider gather may still change the
/// region.
bool region_touches_ring(const std::vector<OrderKCell>& cells,
                         geom::Vec2 center, double rho);

/// Exact V^k_i ∩ bbox(A) for site i. `sites` are global positions (already
/// degeneracy-separated); `grid` indexes the same positions. Generator ids
/// in the result refer to indices in `sites`.
RegionResult compute_dominating_region(const std::vector<geom::Vec2>& sites,
                                       const wsn::SpatialGrid& grid, int i,
                                       int k, const geom::BBox& area_bbox);

}  // namespace laacad::vor
