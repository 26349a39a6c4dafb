#include "wsn/deployment.hpp"

#include <cmath>
#include <stdexcept>

namespace laacad::wsn {

using geom::Vec2;

double auto_comm_range(const Domain& domain, int nodes, double side) {
  const double per_node = domain.area() / std::max(nodes, 1);
  const double range = std::max(side / 6.0, 1.7 * std::sqrt(per_node));
  // Density ceiling: ~40 expected nodes per gamma-disk. Without it the
  // side/6 floor makes gamma O(side) regardless of population, and at
  // 10^5+ nodes every localized gather ring holds thousands of nodes —
  // the O(n * ring_population) wall the scale ladder exists to catch. For
  // a square the ceiling only binds above ~460 nodes, so every sparse
  // config keeps the exact historical value.
  return std::min(range, std::sqrt(40.0 * per_node / M_PI));
}

Domain make_named_domain(const std::string& name, double side,
                         bool with_hole) {
  Domain d;
  if (name == "square") d = Domain::rectangle(side, side);
  else if (name == "lshape") d = Domain::lshape(side, side);
  else if (name == "cross") d = Domain::cross(side, side, 0.4);
  else throw std::invalid_argument("unknown domain shape '" + name + "'");
  if (with_hole) {
    d = d.with_rect_hole({side * 0.30, side * 0.30},
                         {side * 0.45, side * 0.45});
  }
  return d;
}

std::vector<Vec2> deploy_named(const Domain& domain, const std::string& name,
                               int n, double side, Rng& rng) {
  if (name == "uniform") return deploy_uniform(domain, n, rng);
  if (name == "corner") return deploy_corner(domain, n, rng);
  if (name == "gaussian") {
    return deploy_gaussian(domain, n, domain.bbox().center(), side / 6.0,
                           rng);
  }
  throw std::invalid_argument("unknown deployment '" + name + "'");
}

std::vector<Vec2> deploy_uniform(const Domain& domain, int n, Rng& rng) {
  std::vector<Vec2> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(domain.sample_uniform(rng));
  return out;
}

std::vector<Vec2> deploy_corner(const Domain& domain, int n, Rng& rng,
                                double fraction) {
  const geom::BBox bb = domain.bbox();
  std::vector<Vec2> out;
  out.reserve(static_cast<std::size_t>(n));
  int guard = 0;
  while (static_cast<int>(out.size()) < n && guard < 1000000) {
    ++guard;
    Vec2 p{rng.uniform(bb.lo.x, bb.lo.x + bb.width() * fraction),
           rng.uniform(bb.lo.y, bb.lo.y + bb.height() * fraction)};
    if (domain.contains(p)) out.push_back(p);
  }
  // Degenerate domains whose corner window misses the region entirely:
  // fall back to uniform sampling for the remainder.
  while (static_cast<int>(out.size()) < n)
    out.push_back(domain.sample_uniform(rng));
  return out;
}

std::vector<Vec2> deploy_gaussian(const Domain& domain, int n, Vec2 center,
                                  double sigma, Rng& rng) {
  std::vector<Vec2> out;
  out.reserve(static_cast<std::size_t>(n));
  int guard = 0;
  while (static_cast<int>(out.size()) < n && guard < 1000000) {
    ++guard;
    Vec2 p{rng.gaussian(center.x, sigma), rng.gaussian(center.y, sigma)};
    if (domain.contains(p)) out.push_back(p);
  }
  while (static_cast<int>(out.size()) < n)
    out.push_back(domain.sample_uniform(rng));
  return out;
}

std::vector<Vec2> triangular_lattice(const Domain& domain, double spacing) {
  std::vector<Vec2> out;
  const geom::BBox bb = domain.bbox().inflated(spacing);
  const double row_h = spacing * std::sqrt(3.0) / 2.0;
  int row = 0;
  for (double y = bb.lo.y; y <= bb.hi.y; y += row_h, ++row) {
    const double x0 = bb.lo.x + (row % 2 ? spacing / 2.0 : 0.0);
    for (double x = x0; x <= bb.hi.x; x += spacing) {
      const Vec2 p{x, y};
      if (domain.contains(p)) out.push_back(p);
    }
  }
  return out;
}

std::vector<Vec2> stacked(const std::vector<Vec2>& anchors, int k, Rng& rng,
                          double jitter) {
  std::vector<Vec2> out;
  out.reserve(anchors.size() * static_cast<std::size_t>(k));
  for (Vec2 a : anchors) {
    for (int i = 0; i < k; ++i) {
      out.push_back(
          a + Vec2{rng.uniform(-jitter, jitter), rng.uniform(-jitter, jitter)});
    }
  }
  return out;
}

}  // namespace laacad::wsn
