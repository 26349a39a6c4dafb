#include "geometry/welzl.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>

namespace laacad::geom {

namespace {

// Containment tolerance for the incremental construction: proportional to
// the circle size so kilometre-scale regions behave like unit-scale ones.
bool inside(const Circle& c, Vec2 p) {
  if (!c.valid()) return false;
  return dist(c.center, p) <= c.radius + 1e-7 * (1.0 + c.radius);
}

Circle from_3_or_best_pair(Vec2 a, Vec2 b, Vec2 c) {
  if (auto circ = circle_from_3(a, b, c)) return *circ;
  // Near-collinear: the MEC of three collinear points is the diameter circle
  // of the farthest pair.
  Circle best = circle_from_2(a, b);
  for (const Circle cand : {circle_from_2(a, c), circle_from_2(b, c)}) {
    if (cand.radius > best.radius) best = cand;
  }
  return best;
}

// Fixed seed keeps runs reproducible while preserving the expected-linear
// behaviour of the move-to-front construction.
std::mt19937_64 shuffle_generator(std::size_t n) {
  return std::mt19937_64(0x5eed5eedULL ^ n);
}

// Inputs up to this size take their Welzl order from a per-thread cache of
// shuffle permutations; larger ones shuffle a copy directly.
constexpr std::size_t kMaxCachedShuffle = 1024;

// std::shuffle's permutation depends only on the length and the generator,
// never on the values, so shuffling the identity once per size reproduces
// the seeded in-place shuffle bit for bit without re-seeding a generator
// (2.5 KB of state plus a refill) on every call.
const std::vector<std::uint16_t>& cached_shuffle(std::size_t n) {
  thread_local std::vector<std::vector<std::uint16_t>> perms;
  if (perms.size() <= n) perms.resize(n + 1);
  std::vector<std::uint16_t>& perm = perms[n];
  if (perm.empty()) {
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), std::uint16_t{0});
    auto gen = shuffle_generator(n);
    std::shuffle(perm.begin(), perm.end(), gen);
  }
  return perm;
}

}  // namespace

Circle min_enclosing_circle(const std::vector<Vec2>& points) {
  const std::size_t n = points.size();
  if (n < 2) return min_enclosing_circle_in_order(points);
  if (n > kMaxCachedShuffle) {
    std::vector<Vec2> order = points;
    auto gen = shuffle_generator(n);
    std::shuffle(order.begin(), order.end(), gen);
    return min_enclosing_circle_in_order(order);
  }
  thread_local std::vector<Vec2> order;
  const std::vector<std::uint16_t>& perm = cached_shuffle(n);
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = points[perm[i]];
  return min_enclosing_circle_in_order(order);
}

Circle min_enclosing_circle_in_order(const std::vector<Vec2>& points) {
  if (points.empty()) return Circle{{0, 0}, -1.0};
  if (points.size() == 1) return Circle{points[0], 0.0};

  Circle c{points[0], 0.0};
  const std::size_t n = points.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (inside(c, points[i])) continue;
    c = Circle{points[i], 0.0};
    for (std::size_t j = 0; j < i; ++j) {
      if (inside(c, points[j])) continue;
      c = circle_from_2(points[i], points[j]);
      for (std::size_t l = 0; l < j; ++l) {
        if (inside(c, points[l])) continue;
        c = from_3_or_best_pair(points[i], points[j], points[l]);
      }
    }
  }
  return c;
}

}  // namespace laacad::geom
