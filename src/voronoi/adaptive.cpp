#include "voronoi/adaptive.hpp"

#include <algorithm>

#include "geometry/convex.hpp"
#include "voronoi/sites.hpp"

namespace laacad::vor {

using geom::Ring;
using geom::Vec2;

namespace {

constexpr double kGrowth = 1.8;       ///< rho multiplier per expansion
constexpr int kDiskNgonSides = 48;    ///< window approximation of the disk
constexpr double kBBoxMargin = 1.0;   ///< metres of slack around the bbox

}  // namespace

Ring lemma1_window(Vec2 center, double radius, const geom::BBox& area_bbox) {
  const geom::BBox bbox = area_bbox.inflated(kBBoxMargin);
  Ring win = geom::circumscribed_ngon(center, radius, kDiskNgonSides);
  std::vector<geom::HalfPlane> walls = {
      {{bbox.hi.x, 0}, {1, 0}},   // x <= hi.x
      {{bbox.lo.x, 0}, {-1, 0}},  // x >= lo.x
      {{0, bbox.hi.y}, {0, 1}},   // y <= hi.y
      {{0, bbox.lo.y}, {0, -1}},  // y >= lo.y
  };
  return geom::intersect_halfplanes(std::move(win), walls);
}

bool region_touches_ring(const std::vector<OrderKCell>& cells, Vec2 center,
                         double rho) {
  double maxd = 0.0;
  for (const OrderKCell& c : cells)
    for (Vec2 v : c.poly) maxd = std::max(maxd, geom::dist(center, v));
  return !(maxd < 0.5 * rho * (1.0 - 1e-9));
}

RegionResult compute_dominating_region(const std::vector<Vec2>& sites,
                                       const wsn::SpatialGrid& grid, int i,
                                       int k, const geom::BBox& area_bbox) {
  RegionResult result;
  const int n = static_cast<int>(sites.size());
  if (i < 0 || i >= n || k <= 0 || k > n) return result;
  const Vec2 ui = sites[static_cast<size_t>(i)];

  // Initial gather radius: reach comfortably past the k nearest sites.
  double rho = 1.0;
  {
    auto kn = grid.k_nearest(ui, k, /*exclude=*/i);
    if (!kn.empty()) {
      const double dk = geom::dist(sites[static_cast<size_t>(kn.back())], ui);
      rho = std::max(4.0 * dk, 1e-3);
    }
  }

  while (true) {
    std::vector<int> local = grid.within(ui, rho);
    const bool all_sites = static_cast<int>(local.size()) >= n;

    // Build the local site list; remember the mapping back to global ids.
    std::vector<Vec2> lpos;
    lpos.reserve(local.size());
    int li = -1;
    for (std::size_t a = 0; a < local.size(); ++a) {
      if (local[a] == i) li = static_cast<int>(a);
      lpos.push_back(sites[static_cast<size_t>(local[a])]);
    }
    if (li < 0) {  // grid numerics; force self-inclusion
      li = static_cast<int>(lpos.size());
      lpos.push_back(ui);
      local.push_back(i);
    }
    lpos = separate_sites(std::move(lpos));

    const Ring window =
        all_sites ? geom::box_ring(area_bbox.inflated(kBBoxMargin))
                  : lemma1_window(ui, rho / 2.0, area_bbox);
    // The kernel re-indexes the gathered subset internally (thread-local
    // scratch grid above a small site count) — `grid` bounds the gather, the
    // kernel bounds the per-cell candidate lists. Results are bit-identical
    // to the exhaustive kernel either way.
    auto cells = dominating_region_cells(lpos, li, k, window);

    const bool fits = all_sites || !region_touches_ring(cells, ui, rho);
    if (fits && (!cells.empty() || all_sites)) {
      // Remap generator ids to global indices.
      for (OrderKCell& c : cells) {
        for (int& g : c.gens) g = local[static_cast<size_t>(g)];
        std::sort(c.gens.begin(), c.gens.end());
      }
      result.cells = std::move(cells);
      result.rho = rho;
      result.used_all_sites = all_sites;
      return result;
    }
    rho *= kGrowth;
    ++result.expansions;
  }
}

}  // namespace laacad::vor
