#include "voronoi/sites.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "common/perf_counters.hpp"

namespace laacad::vor {

using geom::Vec2;

namespace {

/// Site lists up to this size are prescreened by an x-sorted sweep on the
/// stack (a region's gathered list); longer ones (a network snapshot) by a
/// hash grid.
constexpr std::size_t kSweepMaxSites = 256;

/// True iff every coordinate is finite and divides by min_sep into a cell
/// index far inside int64 (|c| < 2^62 min_sep, which leaves room for the
/// one-cell probes), so both prescreens below may key and order the
/// points. Anything else — a NaN, a coordinate past about 4.6e11 m at the
/// default min_sep, a non-positive min_sep — goes straight to the pair
/// loop, which handles it with plain comparisons.
bool prescreenable(const std::vector<Vec2>& positions, double min_sep) {
  const double limit = 0x1p62 * min_sep;
  if (!(min_sep > 0.0) || !std::isfinite(limit)) return false;
  return std::all_of(positions.begin(), positions.end(), [&](Vec2 p) {
    return std::abs(p.x) < limit && std::abs(p.y) < limit;
  });
}

/// True iff some pair of points lies strictly closer than min_sep. Hash-grid
/// sweep with cell == min_sep: any violating pair shares a cell or sits in
/// adjacent cells, so each point checks at most its 3x3 neighbourhood —
/// O(n) expected, versus the O(n^2) scan it prescreens. Only a boolean
/// leaves this function, so it cannot perturb the (order-sensitive,
/// bit-pinned) separation loop. Needs prescreenable(positions, min_sep).
bool has_close_pair_hashed(const std::vector<Vec2>& positions,
                           double min_sep) {
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

/// The same answer for short lists (at most kSweepMaxSites), by a sweep in
/// ascending x on a stack copy. A pair whose x gap rounds to >= min_sep
/// has dist2 >= min_sep^2 as the pair loop computes it (rounding is
/// monotone and dy^2 >= 0), and so has every pair further along the
/// sweep, so the sweep checks exactly the pairs the pair loop could find
/// too close, with the pair loop's expression. Needs
/// prescreenable(positions, min_sep).
bool has_close_pair_swept(const std::vector<Vec2>& positions,
                          double min_sep) {
  // No default member initializers, so the buffer is not zero-filled.
  struct XY {
    double x, y;
  };
  std::array<XY, kSweepMaxSites> sorted;
  const auto end = std::transform(positions.begin(), positions.end(),
                                  sorted.begin(),
                                  [](Vec2 p) { return XY{p.x, p.y}; });
  std::sort(sorted.begin(), end, [](XY a, XY b) { return a.x < b.x; });
  const double sep2 = min_sep * min_sep;
  for (auto a = sorted.begin(); a != end; ++a)
    for (auto b = a + 1; b != end && b->x - a->x < min_sep; ++b)
      if (geom::dist2({a->x, a->y}, {b->x, b->y}) < sep2) return true;
  return false;
}

}  // namespace

std::vector<Vec2> separate_sites(std::vector<Vec2> positions, double min_sep) {
  // Fast path: a prescreen proves the quadratic separation loop would find
  // nothing to do (by far the common case — live networks only produce
  // sub-min_sep pairs near the k >= 2 co-location equilibrium). Returning
  // the input unchanged is exactly what the loop would do, so the fast
  // path is bit-identical by construction. When a violating pair does
  // exist we fall back to the original pairwise loop: its in-place,
  // index-ordered mutations are part of the pinned deterministic contract
  // and cannot be reordered.
  if (prescreenable(positions, min_sep) &&
      !(positions.size() <= kSweepMaxSites
            ? has_close_pair_swept(positions, min_sep)
            : has_close_pair_hashed(positions, min_sep)))
    return positions;
  return separate_sites_brute(std::move(positions), min_sep);
}

std::vector<Vec2> separate_sites_brute(std::vector<Vec2> positions,
                                       double min_sep) {
  const std::size_t n = positions.size();
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
