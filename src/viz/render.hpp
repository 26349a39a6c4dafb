// Scene renderers reproducing the paper's pictures: deployments with
// sensing disks (Figs. 5 and 8) and k-order Voronoi partitions (Fig. 1).
// Every picture is an 800 px canvas over the domain bbox plus 10 m.
#pragma once

#include <string>

#include "laacad/engine.hpp"
#include "voronoi/orderk.hpp"
#include "wsn/network.hpp"

namespace laacad::viz {

/// Domain outline + holes + translucent sensing disks + nodes.
bool render_deployment(const std::string& path, const wsn::Network& net);

/// Order-k Voronoi partition of the current node positions (Fig. 1 style).
bool render_order_k_partition(const std::string& path,
                              const wsn::Network& net, int k);

}  // namespace laacad::viz
