#include "wsn/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/perf_counters.hpp"
#include "common/thread_pool.hpp"

namespace laacad::wsn {

using geom::Vec2;

SpatialGrid::SpatialGrid(const std::vector<Vec2>& points, double cell_size) {
  rebuild(points, cell_size);
}

void SpatialGrid::rebuild(const std::vector<Vec2>& points, double cell_size,
                          common::ThreadPool* pool) {
  const std::size_t n = points.size();
  n_ = n;
  cell_ = std::max(cell_size, 1e-6);
  if (n == 0) {
    origin_ = Vec2{0.0, 0.0};
    nx_ = ny_ = 1;
    px_.clear();
    py_.clear();
    order_.clear();
    cell_start_.assign(2, 0);
    return;
  }

  // Bounding box: min/max are order-independent, so the chunked reduction
  // below matches the serial scan bit-for-bit regardless of thread count.
  const int nn = static_cast<int>(n);
  double lo_x = points[0].x, lo_y = points[0].y;
  double hi_x = lo_x, hi_y = lo_y;
  for (const Vec2& p : points) {
    lo_x = std::min(lo_x, p.x);
    lo_y = std::min(lo_y, p.y);
    hi_x = std::max(hi_x, p.x);
    hi_y = std::max(hi_y, p.y);
  }
  origin_ = Vec2{lo_x, lo_y};
  nx_ = std::max(1, static_cast<int>(std::ceil((hi_x - lo_x + 1e-9) / cell_)));
  ny_ = std::max(1, static_cast<int>(std::ceil((hi_y - lo_y + 1e-9) / cell_)));
  const std::size_t cells = static_cast<std::size_t>(nx_) * ny_;

  px_.resize(n);
  py_.resize(n);
  order_.resize(n);
  cell_id_.resize(n);
  cell_start_.assign(cells + 1, 0);

  const int threads =
      pool != nullptr && nn >= 4096 ? std::min(pool->size(), nn) : 1;
  if (threads <= 1) {
    // Serial count-then-scatter: cell histogram, exclusive scan, then one
    // ascending-index pass that drops every point into its cell's next free
    // slot — cell-major order, ascending index within a cell.
    for (int i = 0; i < nn; ++i) {
      const Vec2& p = points[static_cast<std::size_t>(i)];
      const auto [cx, cy] = cell_of(p.x, p.y);
      const int c = cell_index(cx, cy);
      cell_id_[static_cast<std::size_t>(i)] = c;
      ++cell_start_[static_cast<std::size_t>(c) + 1];
    }
    for (std::size_t c = 0; c < cells; ++c)
      cell_start_[c + 1] += cell_start_[c];
    std::vector<int> cursor(cell_start_.begin(), cell_start_.end() - 1);
    for (int i = 0; i < nn; ++i) {
      const int c = cell_id_[static_cast<std::size_t>(i)];
      const int slot = cursor[static_cast<std::size_t>(c)]++;
      const Vec2& p = points[static_cast<std::size_t>(i)];
      order_[static_cast<std::size_t>(slot)] = i;
      px_[static_cast<std::size_t>(slot)] = p.x;
      py_[static_cast<std::size_t>(slot)] = p.y;
    }
    return;
  }

  // Parallel count-then-scatter over one chunk per thread. chunk_bounds
  // fixes chunk t's contiguous index range, whichever thread runs it, so
  // the per-chunk histograms line up with the scatter pass. Final slot
  // order: cells ascending, and within a cell chunks ascending then
  // indices ascending — i.e. ascending point index, identical to the
  // serial pass for every thread count.
  const auto chunk_bounds = [&](int t) {
    const long long b = static_cast<long long>(t) * nn / threads;
    const long long e = static_cast<long long>(t + 1) * nn / threads;
    return std::pair<int, int>{static_cast<int>(b), static_cast<int>(e)};
  };
  std::vector<std::vector<int>> counts(
      static_cast<std::size_t>(threads));
  pool->run(threads, [&](int t) {
    auto& mine = counts[static_cast<std::size_t>(t)];
    mine.assign(cells, 0);
    const auto [begin, end] = chunk_bounds(t);
    for (int i = begin; i < end; ++i) {
      const Vec2& p = points[static_cast<std::size_t>(i)];
      const auto [cx, cy] = cell_of(p.x, p.y);
      const int c = cell_index(cx, cy);
      cell_id_[static_cast<std::size_t>(i)] = c;
      ++mine[static_cast<std::size_t>(c)];
    }
  });
  // Exclusive scan over (cell, chunk): counts[t][c] becomes chunk t's first
  // slot in cell c, and cell_start_ the per-cell offsets.
  int running = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    cell_start_[c] = running;
    for (int t = 0; t < threads; ++t) {
      const int k = counts[static_cast<std::size_t>(t)][c];
      counts[static_cast<std::size_t>(t)][c] = running;
      running += k;
    }
  }
  cell_start_[cells] = running;
  pool->run(threads, [&](int t) {
    auto& cursor = counts[static_cast<std::size_t>(t)];
    const auto [begin, end] = chunk_bounds(t);
    for (int i = begin; i < end; ++i) {
      const int c = cell_id_[static_cast<std::size_t>(i)];
      const int slot = cursor[static_cast<std::size_t>(c)]++;
      const Vec2& p = points[static_cast<std::size_t>(i)];
      order_[static_cast<std::size_t>(slot)] = i;
      px_[static_cast<std::size_t>(slot)] = p.x;
      py_[static_cast<std::size_t>(slot)] = p.y;
    }
  });
}

std::pair<int, int> SpatialGrid::cell_of(double x, double y) const {
  int cx = static_cast<int>(std::floor((x - origin_.x) / cell_));
  int cy = static_cast<int>(std::floor((y - origin_.y) / cell_));
  cx = std::clamp(cx, 0, nx_ - 1);
  cy = std::clamp(cy, 0, ny_ - 1);
  return {cx, cy};
}

int SpatialGrid::cell_index(int cx, int cy) const { return cy * nx_ + cx; }

template <class Hit>
void SpatialGrid::scan(Vec2 q, double radius, int exclude, Hit&& hit) const {
  // A hit that returns bool ends the scan by returning true.
  constexpr bool kStoppable =
      std::is_same_v<std::invoke_result_t<Hit&, double, int>, bool>;
  const int r_cells = static_cast<int>(std::ceil(radius / cell_)) + 1;
  auto [cx, cy] = cell_of(q.x, q.y);
  const double r2 = radius * radius;
  std::uint64_t checked = 0;
  // Clamp the scan window up front: for far-outside queries r_cells can be
  // orders of magnitude larger than the grid itself.
  const int y_lo = std::max(0, cy - r_cells), y_hi = std::min(ny_ - 1, cy + r_cells);
  const int x_lo = std::max(0, cx - r_cells), x_hi = std::min(nx_ - 1, cx + r_cells);
  for (int y = y_lo; y <= y_hi; ++y) {
    // One cell row is a contiguous slot range: batch the dist² evaluations
    // over the SoA coordinate slices instead of visiting cell by cell.
    const int row = y * nx_;
    const int begin = cell_start_[static_cast<std::size_t>(row + x_lo)];
    const int end = cell_start_[static_cast<std::size_t>(row + x_hi) + 1];
    checked += static_cast<std::uint64_t>(end - begin);
    for (int j = begin; j < end; ++j) {
      const std::size_t slot = static_cast<std::size_t>(j);
      if (exclude >= 0 && order_[slot] == exclude) {
        --checked;  // counter means "candidates distance-checked"
        continue;
      }
      const double d2 = geom::dist2(Vec2{px_[slot], py_[slot]}, q);
      if (!(d2 <= r2)) continue;
      if constexpr (kStoppable) {
        if (hit(d2, order_[slot])) {
          checked -= static_cast<std::uint64_t>(end - 1 - j);  // unscanned
          perf::counters().dist2_evals += checked;
          return;
        }
      } else {
        hit(d2, order_[slot]);
      }
    }
  }
  perf::counters().dist2_evals += checked;
}

void SpatialGrid::gather(Vec2 q, double radius, int exclude,
                         std::vector<std::pair<double, int>>& out) const {
  out.clear();
  if (n_ == 0 || radius < 0.0) return;
  scan(q, radius, exclude,
       [&out](double d2, int idx) { out.emplace_back(d2, idx); });
}

std::vector<int> SpatialGrid::within(Vec2 q, double radius) const {
  std::vector<int> out;
  if (n_ == 0 || radius < 0.0) return out;
  ++perf::counters().grid_queries;
  scan(q, radius, /*exclude=*/-1,
       [&out](double, int idx) { out.push_back(idx); });
  std::sort(out.begin(), out.end());
  return out;
}

bool SpatialGrid::any_within(Vec2 q, double radius) const {
  if (n_ == 0 || radius < 0.0) return false;
  ++perf::counters().grid_queries;
  bool found = false;
  scan(q, radius, /*exclude=*/-1, [&found](double, int) {
    found = true;
    return true;
  });
  return found;
}

void SpatialGrid::collect_within(Vec2 q, double radius,
                                 std::vector<std::pair<double, int>>& out) const {
  ++perf::counters().grid_queries;
  gather(q, radius, /*exclude=*/-1, out);
  // Pairs sort lexicographically: ascending dist2, ties by ascending index.
  std::sort(out.begin(), out.end());
}

std::vector<int> SpatialGrid::k_nearest(Vec2 q, int k, int exclude) const {
  std::vector<int> out;
  if (n_ == 0 || k <= 0) return out;
  ++perf::counters().grid_queries;
  // Expanding-radius search. `cover` provably reaches every point from q
  // wherever q lies — also outside the points' bounding box, where the old
  // grid-diagonal cap could stop the expansion while points were still
  // beyond the last gathered radius.
  const Vec2 hi{origin_.x + nx_ * cell_, origin_.y + ny_ * cell_};
  const double span_x = std::max(std::abs(q.x - origin_.x), std::abs(hi.x - q.x));
  const double span_y = std::max(std::abs(q.y - origin_.y), std::abs(hi.y - q.y));
  const double cover = std::hypot(span_x, span_y) + cell_;
  double radius = cell_;
  std::vector<std::pair<double, int>> cand;
  while (true) {
    gather(q, radius, exclude, cand);
    if (static_cast<int>(cand.size()) >= k || radius >= cover) break;
    radius = std::min(radius * 2.0, cover);
  }
  // Every gathered candidate lies within `radius` and every missing point
  // lies beyond it, so once k candidates exist the k nearest are among
  // them — no re-verification pass. One sort per query, by (dist2, index):
  // the same canonical order (and tie-break) as vor::k_nearest_brute.
  std::sort(cand.begin(), cand.end());
  if (static_cast<int>(cand.size()) > k) cand.resize(static_cast<std::size_t>(k));
  out.reserve(cand.size());
  for (const auto& [d2, idx] : cand) out.push_back(idx);
  return out;
}

}  // namespace laacad::wsn
