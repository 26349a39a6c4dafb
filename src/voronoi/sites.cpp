#include "voronoi/sites.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "common/perf_counters.hpp"

namespace laacad::vor {

using geom::Vec2;

namespace {

/// True iff some pair of points lies strictly closer than min_sep. Hash-grid
/// sweep with cell == min_sep: any violating pair shares a cell or sits in
/// adjacent cells, so each point checks at most its 3x3 neighbourhood —
/// O(n) expected, versus the O(n^2) scan it prescreens. Only a boolean
/// leaves this function, so it cannot perturb the (order-sensitive,
/// bit-pinned) separation loop below.
bool has_close_pair(const std::vector<Vec2>& positions, double min_sep) {
  const double inv = 1.0 / min_sep;
  const double sep2 = min_sep * min_sep;
  // Key packs the two 64-bit cell coordinates (coordinates over metres-scale
  // domains divided by a 1e-7 cell overflow int32) into one hashable word.
  const auto key_of = [&](Vec2 p) {
    const auto cx = static_cast<std::int64_t>(std::floor(p.x * inv));
    const auto cy = static_cast<std::int64_t>(std::floor(p.y * inv));
    return static_cast<std::uint64_t>(cx) * 0x9e3779b97f4a7c15ULL +
           static_cast<std::uint64_t>(cy);
  };
  // Chained buckets: head[cell key] -> most recent point, next[] threads the
  // rest. One pass inserts and probes the 3x3 neighbourhood around each
  // point against previously inserted ones, so every pair is checked once.
  std::unordered_map<std::uint64_t, int> head;
  head.reserve(positions.size() * 2);
  std::vector<int> next(positions.size(), -1);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec2 p = positions[i];
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const Vec2 probe{p.x + dx * min_sep, p.y + dy * min_sep};
        const auto it = head.find(key_of(probe));
        if (it == head.end()) continue;
        for (int j = it->second; j >= 0; j = next[static_cast<std::size_t>(j)])
          if (geom::dist2(p, positions[static_cast<std::size_t>(j)]) < sep2)
            return true;
      }
    }
    auto [it, fresh] = head.try_emplace(key_of(p), static_cast<int>(i));
    if (!fresh) {
      next[i] = it->second;
      it->second = static_cast<int>(i);
    }
  }
  return false;
}

}  // namespace

std::vector<Vec2> separate_sites(std::vector<Vec2> positions, double min_sep) {
  const std::size_t n = positions.size();
  // Fast path for large site sets: a linear-time prescreen proves the
  // quadratic separation loop would find nothing to do (by far the common
  // case — live networks only produce sub-min_sep pairs near the k >= 2
  // co-location equilibrium). Returning the input unchanged is exactly what
  // the loop below would do, so the fast path is bit-identical by
  // construction. When a violating pair does exist we fall back to the
  // original pairwise loop: its in-place, index-ordered mutations are part
  // of the pinned deterministic contract and cannot be reordered.
  if (n > 256 && !has_close_pair(positions, min_sep)) return positions;
  // O(n^2) in the worst case but the inner work only triggers for
  // near-coincident pairs; region computations call this on small local
  // lists, and full-network calls are once per round.
  for (std::size_t pass = 0; pass < std::size_t{kSeparationPasses}; ++pass) {
    bool moved = false;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (geom::dist2(positions[a], positions[b]) >= min_sep * min_sep)
          continue;
        // Deterministic separation direction derived from the indices.
        const double ang =
            2.39996322972865332 * static_cast<double>(a * 31 + b * 7 + pass);
        const Vec2 dir{std::cos(ang), std::sin(ang)};
        positions[a] -= dir * (kSeparationStep * min_sep);
        positions[b] += dir * (kSeparationStep * min_sep);
        moved = true;
      }
    }
    if (!moved) break;
  }
  return positions;
}

std::vector<int> k_nearest_brute(const std::vector<Vec2>& sites, Vec2 q,
                                 int k) {
  // (dist2, index) keys: dist2 computed once per site instead of once per
  // sort comparison, and ties resolve by ascending index — the same
  // canonical order wsn::SpatialGrid::k_nearest produces, so grid and brute
  // answers agree exactly (property-tested in tests/test_wsn.cpp).
  std::vector<std::pair<double, int>> keyed;
  keyed.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i)
    keyed.emplace_back(geom::dist2(sites[i], q), static_cast<int>(i));
  perf::counters().dist2_evals += keyed.size();
  const int kk = std::min<int>(k, static_cast<int>(sites.size()));
  std::partial_sort(keyed.begin(), keyed.begin() + kk, keyed.end());
  std::vector<int> idx;
  idx.reserve(static_cast<std::size_t>(kk));
  for (int i = 0; i < kk; ++i) idx.push_back(keyed[static_cast<std::size_t>(i)].second);
  return idx;
}

int closer_count(const std::vector<Vec2>& sites, int i, Vec2 v) {
  const double di = geom::dist2(sites[static_cast<size_t>(i)], v);
  int count = 0;
  for (std::size_t j = 0; j < sites.size(); ++j) {
    if (static_cast<int>(j) == i) continue;
    if (geom::dist2(sites[j], v) < di) ++count;
  }
  return count;
}

}  // namespace laacad::vor
