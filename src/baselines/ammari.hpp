// Ammari & Das [15] (ICDCN 2010): mission-oriented k-coverage via Reuleaux
// triangle decomposition. Their derivation needs
//
//   N*_k = 6 k |A| / ((4 pi - 3 sqrt 3) r^2)
//
// nodes to k-cover an area |A| at sensing range r (k >= 3) — the quantity
// Table II of the LAACAD paper evaluates.
#pragma once

namespace laacad::base {

/// Node count required by the Ammari-Das Reuleaux-lens scheme to k-cover
/// `area` at range r (k >= 3 in their derivation; formula evaluated as-is).
double ammari_min_nodes(double area, double r, int k);

}  // namespace laacad::base
