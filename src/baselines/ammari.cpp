#include "baselines/ammari.hpp"

#include <cmath>

namespace laacad::base {

double ammari_min_nodes(double area, double r, int k) {
  return 6.0 * static_cast<double>(k) * area /
         ((4.0 * M_PI - 3.0 * std::sqrt(3.0)) * r * r);
}

}  // namespace laacad::base
