#include "laacad/region.hpp"

#include <algorithm>

namespace laacad::core {

using geom::Ring;
using geom::Vec2;

DominatingRegion::DominatingRegion(const std::vector<vor::OrderKCell>& cells,
                                   const wsn::Domain& domain) {
  pieces_.reserve(cells.size());
  for (const vor::OrderKCell& cell : cells) {
    wsn::ClippedRegion clipped = domain.clip_cell(cell.poly);
    if (clipped.empty()) continue;
    area_ += clipped.coverage_area();
    for (Vec2 v : clipped.outer) vertices_.push_back(v);
    pieces_.push_back(std::move(clipped.outer));
  }
}

double DominatingRegion::max_dist_from(Vec2 u) const {
  return geom::max_dist(u, vertices_);
}

geom::Circle DominatingRegion::chebyshev() const {
  return geom::min_enclosing_circle(vertices_);
}

geom::Vec2 DominatingRegion::centroid() const {
  double total = 0.0;
  Vec2 acc{0, 0};
  for (const Ring& piece : pieces_) {
    const double a = geom::area(piece);
    acc += geom::centroid(piece) * a;
    total += a;
  }
  if (total <= 0.0) return acc;
  return acc / total;
}

bool DominatingRegion::contains(Vec2 v, double eps) const {
  for (const Ring& piece : pieces_) {
    if (geom::contains_point(piece, v, eps)) return true;
  }
  return false;
}

}  // namespace laacad::core
