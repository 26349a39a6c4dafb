#include "laacad/localized.hpp"

#include <algorithm>
#include <cmath>

#include "voronoi/adaptive.hpp"
#include "voronoi/sites.hpp"
#include "wsn/localization.hpp"

namespace laacad::core {

using geom::Vec2;

namespace {

constexpr int kArcSamples = 72;  ///< sample density of the rho/2-circle check
/// TTL slack of hop-realistic flooding: ceil(rho/gamma) + kHopSlack hops.
constexpr int kHopSlack = 2;
/// A circle sample counts as "inside the network" when within this many
/// transmission ranges of a gathered node (coverage proxy for the
/// boundary-node arc restriction).
constexpr double kNetworkReachFactor = 1.25;

}  // namespace

LocalizedRegion localized_region(const wsn::CommModel& comm, wsn::NodeId i,
                                 int k, const wsn::BoundaryInfo& boundary,
                                 const LocalizedConfig& cfg,
                                 wsn::CommStats* stats, Rng& rng) {
  LocalizedRegion out;
  const wsn::Network& net = comm.network();
  const wsn::Domain& domain = net.domain();
  const Vec2 ui = net.position(i);
  const double gamma = net.gamma();
  const double reach = kNetworkReachFactor * gamma;

  // Compute the region from the currently gathered set, clipped to the
  // searching ring and the area bounding box.
  const geom::BBox area_bbox = domain.bbox();
  std::vector<int> gathered;
  auto compute_cells = [&](double rho) {
    const auto rel = wsn::local_frame(net, i, gathered, cfg.range_noise, rng);
    std::vector<Vec2> sites;
    sites.reserve(gathered.size() + 1);
    sites.push_back(ui);
    for (Vec2 r : rel) sites.push_back(ui + r);
    sites = vor::separate_sites(std::move(sites));
    // Fewer than k sites in reach: every reachable point is dominated, so
    // the region is the whole window (|S| <= k-1 trivially).
    const int k_eff = std::min<int>(k, static_cast<int>(sites.size()));
    return vor::dominating_region_cells(
        sites, 0, k_eff, vor::lemma1_window(ui, rho / 2.0, area_bbox));
  };

  double rho = 0.0;
  int hops = 0;
  std::vector<vor::OrderKCell> cells;
  while (true) {
    rho += gamma;
    ++hops;
    if (hops > cfg.max_hops) {
      // Searching capped: the ring itself becomes part of the region
      // boundary (Fig. 3) — typical for boundary nodes of a deployment
      // that has not yet expanded over the whole area.
      rho -= gamma;
      --hops;
      out.capped = true;
      if (rho > 0.0) cells = compute_cells(rho);
      break;
    }
    gathered = comm.gather(
        i, rho, cfg.ideal_gather ? -1 : hops + kHopSlack, stats);

    // Line 5-8 of Algorithm 2: is any point of the rho/2-circle still
    // dominated by n_i?
    bool enclosed = true;
    for (int s = 0; s < kArcSamples; ++s) {
      const double ang = 2.0 * M_PI * s / kArcSamples;
      const Vec2 v = ui + Vec2{std::cos(ang), std::sin(ang)} * (rho / 2.0);
      if (!domain.contains(v)) continue;  // A's boundary: natural boundary
      if (boundary.network_boundary) {
        // Restrict to the arc inside the region the network occupies.
        bool inside_net = geom::dist(v, ui) <= reach;
        for (int j : gathered) {
          if (inside_net) break;
          inside_net = geom::dist(v, net.position(j)) <= reach;
        }
        if (!inside_net) continue;
      }
      // Only closer < k is read, so stop counting at k.
      int closer = 0;
      const double di = geom::dist(ui, v);
      for (int j : gathered) {
        if (geom::dist(net.position(j), v) < di && ++closer == k) break;
      }
      if (closer < k) {  // v still dominated by n_i: expand further
        enclosed = false;
        break;
      }
    }
    if (!enclosed) continue;

    // The sampled certificate can miss a sliver of the region slipping
    // through an arc gap (e.g. near a domain corner), so verify it
    // geometrically: if the computed region touches the rho/2 ring, the
    // ring is still too tight — expand once more (same Lemma-1 touch test
    // as the global adaptive solver).
    cells = compute_cells(rho);
    if (!vor::region_touches_ring(cells, ui, rho)) break;
  }
  out.rho = rho;
  out.hops = hops;

  for (vor::OrderKCell& c : cells) {
    for (int& g : c.gens)
      g = (g == 0) ? static_cast<int>(i)
                   : gathered[static_cast<std::size_t>(g) - 1];
    std::sort(c.gens.begin(), c.gens.end());
  }
  out.cells = std::move(cells);
  return out;
}

}  // namespace laacad::core
