#include "voronoi/sites.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/perf_counters.hpp"

namespace laacad::vor {

using geom::Vec2;

namespace {

/// Sorts the run of sites sharing a's x (it starts at a, in an x-sorted
/// range ending at end) by y, and returns one past its end. Kept out of
/// line: runs are rare, and inlined it made the sweep's hot loop slower.
[[gnu::noinline]] std::vector<Vec2>::iterator sort_run_by_y(
    std::vector<Vec2>::iterator a, std::vector<Vec2>::iterator end) {
  const auto run_end =
      std::find_if(a + 1, end, [x = a->x](Vec2 p) { return p.x != x; });
  std::sort(a, run_end, [](Vec2 p, Vec2 q) { return p.y < q.y; });
  return run_end;
}

/// False only when a sweep proves that no pair of points lies strictly
/// closer than min_sep; true, untested, for a non-finite coordinate (a
/// NaN has no place in the order std::sort needs) or a min_sep that is
/// not finite and > 0, which the pair loop handles with plain comparisons.
/// The sweep runs in ascending x over a sorted copy. A pair whose x gap
/// rounds to >= min_sep has dist2 >= min_sep^2 as the pair loop computes
/// it (rounding is monotone and dy^2 >= 0), and so has every pair further
/// along the sweep. A run of equal x (nodes pinned on a vertical edge) is
/// sorted by y when the sweep reaches its first site; there dx is exactly
/// 0 and y ascends, so once the y gap reaches min_sep the rest of the run
/// is skipped. The sweep thus checks exactly the pairs the pair loop could
/// find too close, with the pair loop's expression, and only a boolean
/// leaves it: it cannot perturb the (order-sensitive, bit-pinned)
/// separation loop. O(n log n) plus the pairs inside the min_sep band.
bool needs_pair_loop(const std::vector<Vec2>& positions, double min_sep) {
  if (!(min_sep > 0.0) || !std::isfinite(min_sep) ||
      !std::all_of(positions.begin(), positions.end(), [](Vec2 p) {
        return std::isfinite(p.x) && std::isfinite(p.y);
      }))
    return true;
  // One sort buffer per thread: most lists are a region's short gather,
  // where a fresh allocation per call costs as much as the sweep. It keeps
  // the capacity of the longest list its thread has checked (16 B a site:
  // the global provider's snapshot on the round thread, a gather on each
  // pool worker) until the thread exits.
  thread_local std::vector<Vec2> sorted;
  sorted.assign(positions.begin(), positions.end());
  const auto end = sorted.end();
  // By x alone: an (x, y) comparator made the whole check 1.2-2x slower
  // (256 sites to a 2 000-site column), and equal-x runs are rare.
  std::sort(sorted.begin(), end, [](Vec2 a, Vec2 b) { return a.x < b.x; });
  const double sep2 = min_sep * min_sep;
  auto run_end = sorted.begin();  // one past the last equal-x run sorted
  for (auto a = sorted.begin(); a != end; ++a) {
    for (auto b = a + 1; b != end && b->x - a->x < min_sep; ++b) {
      if (b->x == a->x && run_end <= a)  // b == a + 1: a opens a run
        run_end = sort_run_by_y(a, end);
      if (geom::dist2(*a, *b) < sep2) return true;
      if (b->x == a->x && b->y - a->y >= min_sep) b = run_end - 1;
    }
  }
  return false;
}

}  // namespace

std::vector<Vec2> separate_sites(std::vector<Vec2> positions, double min_sep) {
  // Fast path: the sweep proves the quadratic separation loop would find
  // nothing to do (by far the common case — live networks only produce
  // sub-min_sep pairs near the k >= 2 co-location equilibrium). Returning
  // the input unchanged is exactly what the loop would do, so the fast
  // path is bit-identical by construction. When a violating pair does
  // exist we fall back to the original pairwise loop: its in-place,
  // index-ordered mutations are part of the pinned deterministic contract
  // and cannot be reordered.
  if (!needs_pair_loop(positions, min_sep)) return positions;
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
