// Voronoi generator sites with degeneracy handling.
//
// LAACAD's equilibrium for k >= 2 drives groups of k nodes toward
// co-location (Fig. 5), which makes perpendicular bisectors between group
// members numerically ill-conditioned. SiteSet deterministically separates
// sites closer than a tiny threshold before any bisector is formed, so the
// Voronoi machinery never sees coincident generators. The perturbation
// (<= 1e-7 m at km scale) is far below every quantity the experiments
// report.
#pragma once

#include <vector>

#include "geometry/vec2.hpp"

namespace laacad::vor {

/// Minimum separation enforced between any two sites handed to the cell
/// construction.
inline constexpr double kMinSiteSeparation = 1e-7;

/// separate_sites() runs at most this many passes over all pairs...
inline constexpr int kSeparationPasses = 4;
/// ...and in each pass pushes both sites of every too-close pair apart by
/// this fraction of min_sep.
inline constexpr double kSeparationStep = 0.6;

/// Upper bound on how far separate_sites() can move any one of `n` sites:
/// every pass pushes a site at most once per partner, and it has at most
/// n - 1 partners.
constexpr double max_separation_shift(int n,
                                      double min_sep = kMinSiteSeparation) {
  return kSeparationPasses * (n - 1) * kSeparationStep * min_sep;
}

/// Returns a copy of `positions` where near-coincident points have been
/// pushed apart deterministically (by index-dependent directions), leaving
/// all other points untouched. One prescreen serves every list size: a
/// sweep over a copy sorted by (x, y) returns the input as is when it
/// proves no pair closer than min_sep, in O(n log n) for lists with no
/// crowded min_sep band. Otherwise — and for a non-finite coordinate or a
/// min_sep that is not finite and > 0 — this is separate_sites_brute.
std::vector<geom::Vec2> separate_sites(std::vector<geom::Vec2> positions,
                                       double min_sep = kMinSiteSeparation);

/// The separation itself, with no prescreen: up to kSeparationPasses
/// passes over all pairs in index order. The reference separate_sites
/// must equal bit for bit.
std::vector<geom::Vec2> separate_sites_brute(
    std::vector<geom::Vec2> positions, double min_sep = kMinSiteSeparation);

/// Indices of the k nearest sites to q among `sites` (brute force; intended
/// for the small local site lists inside region computations). Includes a
/// site at distance 0 if present.
std::vector<int> k_nearest_brute(const std::vector<geom::Vec2>& sites,
                                 geom::Vec2 q, int k);

/// Number of sites strictly closer to v than sites[i] — the |S_i(v)| of
/// Proposition 1. Membership test: v is in the dominating region of i iff
/// this is <= k-1.
int closer_count(const std::vector<geom::Vec2>& sites, int i, geom::Vec2 v);

}  // namespace laacad::vor
