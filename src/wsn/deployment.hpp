// Initial-deployment generators for the scenarios in the paper's evaluation:
// uniform random (Fig. 7, Tables I/II), corner cluster (Figs. 5/6), and the
// regular lattices used by the baselines.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "wsn/domain.hpp"

namespace laacad::wsn {

/// Density-aware auto transmission range: large enough that the disk graph
/// stays well connected (~9 expected one-hop neighbours) even for sparse
/// populations, floored at side/6 — but ceilinged so a gamma-disk holds
/// ~40 expected nodes, which keeps localized gather rings O(1)-sized in
/// the dense (10^5+) regime. Shared by laacad_sim and the scenario engine
/// so their runs are cross-comparable.
double auto_comm_range(const Domain& domain, int nodes, double side);

/// The named evaluation domains ("square" | "lshape" | "cross"), optionally
/// with the standard obstacle rectangle — one definition shared by
/// laacad_sim and the scenario engine so identical parameters mean
/// identical experiments. Throws std::invalid_argument for unknown names.
Domain make_named_domain(const std::string& name, double side,
                         bool with_hole = false);

/// Named initial deployment ("uniform" | "corner" | "gaussian"; gaussian is
/// centred with sigma = side/6). Throws std::invalid_argument for unknown
/// names.
std::vector<geom::Vec2> deploy_named(const Domain& domain,
                                     const std::string& name, int n,
                                     double side, Rng& rng);

/// n positions sampled uniformly over the domain's coverage area.
std::vector<geom::Vec2> deploy_uniform(const Domain& domain, int n, Rng& rng);

/// n positions clustered in the bottom-left corner of the domain bbox
/// (within `fraction` of its width/height), as in Fig. 5(a).
std::vector<geom::Vec2> deploy_corner(const Domain& domain, int n, Rng& rng,
                                      double fraction = 0.12);

/// n positions from an isotropic Gaussian centred at `center` (clipped to
/// the domain by resampling).
std::vector<geom::Vec2> deploy_gaussian(const Domain& domain, int n,
                                        geom::Vec2 center, double sigma,
                                        Rng& rng);

/// Triangular (hexagonal-packing) lattice with edge `spacing` covering the
/// domain; only in-domain points are returned.
std::vector<geom::Vec2> triangular_lattice(const Domain& domain,
                                           double spacing);

/// k nodes per anchor point, jittered by `jitter` so co-located generators
/// remain numerically distinct.
std::vector<geom::Vec2> stacked(const std::vector<geom::Vec2>& anchors, int k,
                                Rng& rng, double jitter = 1e-3);

}  // namespace laacad::wsn
