// Connectivity analysis of a deployment (Sec. IV-C "Connectivity").
//
// The paper argues that a k-covered WSN (k >= 2) is connected as a natural
// by-product: under k-coverage at least k nodes lie within any node's
// sensing range, in practice at least 7 (Fig. 2), so with the common
// assumption gamma >= r_i every node has degree >= 6. This module measures
// the claim: connected components and degree statistics of the
// communication graph, under either the transmission range gamma or any
// hypothetical radio range.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "wsn/network.hpp"

namespace laacad::wsn {

struct ConnectivityReport {
  int components = 0;       ///< connected components of the radio graph
  int largest_component = 0;
  int min_degree = 0;
  double mean_degree = 0.0;
  bool connected() const { return components <= 1; }
};

/// Analyze the communication graph with edges iff distance <= radio_range
/// (pass net.gamma() for the actual radio, or e.g. the max sensing range to
/// test the paper's gamma >= r_i argument).
ConnectivityReport analyze_connectivity(const Network& net,
                                        double radio_range);

}  // namespace laacad::wsn
