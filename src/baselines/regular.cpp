#include "baselines/regular.hpp"

#include <cmath>

namespace laacad::base {

namespace {
const double kSqrt3 = std::sqrt(3.0);
}

double kershner_min_nodes(double area, double r) {
  return 2.0 * area / (3.0 * kSqrt3 * r * r);
}

double bai_min_nodes_2cov(double area, double r) {
  return 4.0 * area / (3.0 * kSqrt3 * r * r);
}

double stacked_min_nodes(double area, double r, int k) {
  return static_cast<double>(k) * kershner_min_nodes(area, r);
}

}  // namespace laacad::base
