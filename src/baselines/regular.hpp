// Regular-deployment baselines from the coverage literature the paper
// compares against.
//
// * Kershner (1939): optimal 1-coverage density is 2*pi/(3*sqrt 3), achieved
//   by a triangular lattice with spacing sqrt(3) r.
// * Bai et al. [3] (INFOCOM 2011): the optimal congruent deployment density
//   for 2-coverage is 4*pi/(3*sqrt 3) — exactly twice Kershner, achieved by
//   stacking two triangular lattices. Table I of the LAACAD paper uses the
//   node-count form N* = 4|A| / (3 sqrt(3) R*^2).
#pragma once

namespace laacad::base {

/// Minimum node count for 1-coverage of `area` at sensing range r
/// (Kershner bound, no boundary effects): 2 |A| / (3 sqrt(3) r^2).
double kershner_min_nodes(double area, double r);

/// Minimum node count for 2-coverage at range r per Bai et al. [3]:
/// 4 |A| / (3 sqrt(3) r^2). This is the N*_{k=2} column of Table I.
double bai_min_nodes_2cov(double area, double r);

/// Generalized stacked bound: k |A| * 2 / (3 sqrt(3) r^2) — k copies of the
/// optimal 1-cover (known optimal for k = 2, an upper-bound construction
/// otherwise).
double stacked_min_nodes(double area, double r, int k);

}  // namespace laacad::base
