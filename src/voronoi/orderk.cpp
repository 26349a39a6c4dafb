#include "voronoi/orderk.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <utility>

#include "common/perf_counters.hpp"
#include "geometry/halfplane.hpp"
#include "voronoi/sites.hpp"

namespace laacad::vor {

using geom::HalfPlane;
using geom::Ring;
using geom::Vec2;

namespace {

// Max distance from `ref` to any vertex of the ring.
double max_vertex_dist(const Ring& ring, Vec2 ref) {
  double m = 0.0;
  for (Vec2 v : ring) m = std::max(m, geom::dist(ref, v));
  return m;
}

// ---------------------------------------------------------- cell engine ----
//
// One order-k cell is the window clipped against bisectors with out-sites
// taken in ascending distance from the reference generator, with the Lemma
// pruning bound ending the scan early. The brute and grid paths share this
// machinery; they differ only in how the candidate list is produced.
//
// Every edge of the cell carries a label naming what created it: the window
// (kWindowEdge) or an index into `cuts`, the (kept generator h, out-site j)
// pair whose bisector clipped it. Crossing an edge on bisector(h, j) swaps h
// for j (D. T. Lee, IEEE Trans. Computers C-31(6), 1982), so the BFS
// derives each neighbouring cell from the label instead of locating it.
//
// A bisector that only touches the cell (some vertex within kEps, cutting
// nothing) is kept in `touches`. Near-coincident bisectors (co-located
// sites pulled apart by separate_sites) can cross at a vertex and stay
// within kEps of each other along the edge beyond it: the edge is then
// split below clipping resolution, and the cell across the first stretch,
// H - h + j, has no edge of its own to be found through.

constexpr int kWindowEdge = -1;

struct Swap {
  int h;  // generator left behind across the bisector
  int j;  // out-site taken in

  bool operator==(const Swap&) const = default;
};

// Reusable per-BFS scratch: ping-pong clip rings with their edge labels,
// the per-cell swap lists and the candidate buffer. Eliminates the ring
// allocation per half-plane clip (and the candidate vector per cell) the
// old kernel paid.
struct CellScratch {
  Ring cur, next;
  std::vector<int> labels, next_labels;  // one per edge of cur / next
  std::vector<Swap> cuts, touches;       // reset per cell
  std::vector<std::pair<double, int>> cand;  // (dist2 to ref, site index)
};

struct CellState {
  Vec2 ref;          // first generator: reference for ordering and pruning
  double dmax_h = 0; // max distance from ref to any generator
  double rv = 0;     // max distance from ref to any current cell vertex
};

// Load the window into scratch.cur and derive the pruning state. Returns
// false when the cell is trivially empty.
bool init_cell(const std::vector<Vec2>& sites, const std::vector<int>& gens,
               const Ring& window, CellScratch& s, CellState& st) {
  s.cur.assign(window.begin(), window.end());
  s.labels.assign(s.cur.size(), kWindowEdge);
  s.cuts.clear();
  s.touches.clear();
  if (s.cur.size() < 3 || gens.empty()) {
    s.cur.clear();
    s.labels.clear();
    return false;
  }
  st.ref = sites[static_cast<std::size_t>(gens.front())];
  st.dmax_h = 0.0;
  for (int h : gens)
    st.dmax_h =
        std::max(st.dmax_h, geom::dist(sites[static_cast<std::size_t>(h)], st.ref));
  st.rv = max_vertex_dist(s.cur, st.ref);
  perf::counters().dist2_evals += gens.size() + s.cur.size();
  return true;
}

// Clip scratch.cur against the out-sites cand[from..to) (in the order
// given; both paths supply ascending (dist2, index)). Returns true when the
// scan stopped early — the pruning bound fired or the cell emptied — which
// proves no out-site later in the canonical order can cut the cell.
bool clip_against(const std::vector<Vec2>& sites, const std::vector<int>& gens,
                  const std::vector<std::pair<double, int>>& cand,
                  std::size_t from, std::size_t to, CellScratch& s,
                  CellState& st) {
  auto& pc = perf::counters();
  for (std::size_t a = from; a < to; ++a) {
    if (s.cur.empty()) return true;
    const Vec2 uj = sites[static_cast<std::size_t>(cand[a].second)];
    // Pruning: for any v in the cell, dist(v, u_j) >= |u_j - ref| - rv and
    // dist(v, u_h) <= rv + dmax_h. If the former exceeds the latter for the
    // nearest remaining out-site, no later out-site can cut either.
    ++pc.dist2_evals;
    if (geom::dist(uj, st.ref) - st.rv > st.rv + st.dmax_h) return true;
    const int j = cand[a].second;
    bool cut = false;
    for (int h : gens) {
      const HalfPlane hp =
          geom::bisector_halfplane(sites[static_cast<std::size_t>(h)], uj);
      // Quick reject: does the bisector actually cut the current cell?
      // `touch`: some vertex lies on it (within kEps).
      bool all_inside = true, touch = false;
      for (Vec2 v : s.cur) {
        const double d = hp.signed_dist(v);
        if (d > geom::kEps) {
          all_inside = false;
          break;
        }
        touch |= d >= -geom::kEps;
      }
      if (all_inside) {
        if (touch) s.touches.push_back(Swap{h, j});
        continue;
      }
      s.cuts.push_back(Swap{h, j});
      geom::EdgeLabels labels{s.labels, s.next_labels,
                              static_cast<int>(s.cuts.size()) - 1};
      geom::clip_ring_into(s.cur, hp, s.next, geom::kEps, &labels);
      std::swap(s.cur, s.next);
      std::swap(s.labels, s.next_labels);
      cut = true;
      if (s.cur.empty()) break;
    }
    if (cut) {
      st.rv = max_vertex_dist(s.cur, st.ref);
      pc.dist2_evals += s.cur.size();
    }
  }
  return false;
}

// Exhaustive path: every out-site, sorted once by (dist2 to ref, index).
void cell_brute(const std::vector<Vec2>& sites, const std::vector<int>& gens,
                CellScratch& s, CellState& st) {
  s.cand.clear();
  for (std::size_t j = 0; j < sites.size(); ++j) {
    if (std::binary_search(gens.begin(), gens.end(), static_cast<int>(j)))
      continue;
    s.cand.emplace_back(geom::dist2(sites[j], st.ref), static_cast<int>(j));
  }
  perf::counters().dist2_evals += s.cand.size();
  std::sort(s.cand.begin(), s.cand.end());
  clip_against(sites, gens, s.cand, 0, s.cand.size(), s, st);
}

// Grid path: gather candidates in expanding rings around the reference
// generator. Once the gather radius R satisfies R >= 2 rv + dmax_h, any
// site beyond R fails the clip_against pruning bound outright (its distance
// exceeds R >= 2 rv + dmax_h), so the brute scan would have stopped at it —
// the bounded candidate list yields the bit-identical cell. If every site
// is gathered before the bound closes, the list has degenerated to the
// exhaustive one (counted as a kernel fallback) and equality is trivial.
// Each expansion re-gathers and re-sorts the full disk rather than merging
// in the new annulus: the bit-identity argument leans on the processed
// prefix being a stable prefix of one sorted list, which a full re-gather
// gives for free, and expansions are rare (the radius doubles from a
// generator-spread initial guess). The redundant evaluations count against
// the grid path in the dist2 counters, i.e. the reported reduction is
// conservative.
void cell_grid(const std::vector<Vec2>& sites, const wsn::SpatialGrid& grid,
               const std::vector<int>& gens, CellScratch& s, CellState& st) {
  const std::size_t n_out = sites.size() - gens.size();
  double bound = 2.0 * st.rv + st.dmax_h;
  double radius = std::min(bound, st.dmax_h + grid.cell_size());
  std::size_t processed = 0;
  while (true) {
    grid.collect_within(st.ref, radius, s.cand);
    // Drop the generators; the (dist2, index) order is preserved, and the
    // first `processed` entries match the previous, smaller gather exactly.
    std::erase_if(s.cand, [&](const std::pair<double, int>& c) {
      return std::binary_search(gens.begin(), gens.end(), c.second);
    });
    if (clip_against(sites, gens, s.cand, processed, s.cand.size(), s, st))
      return;
    processed = s.cand.size();
    if (processed >= n_out) {
      // Bound never closed before the gather covered every out-site: the
      // provable fallback to the exhaustive list.
      ++perf::counters().kernel_fallbacks;
      return;
    }
    bound = 2.0 * st.rv + st.dmax_h;
    if (radius >= bound) return;  // no ungathered site can pass the bound
    radius = std::min(radius * 2.0, bound);
  }
}

// The one point-location primitive of the seeders: k nearest sites to a
// point, through the grid when one is available. Grid and brute answers are
// exactly equal (shared canonical (dist2, index) order; property-tested).
std::vector<int> nearest_gens(const std::vector<Vec2>& sites,
                              const wsn::SpatialGrid* grid, Vec2 p, int k) {
  return grid ? grid->k_nearest(p, k) : k_nearest_brute(sites, p, k);
}

// -------------------------------------------------------- visited cells ----

// Flat open-addressing hash set over canonical (sorted, size-k) generator
// sets. Replaces the std::set<std::vector<int>> the BFS used to pay a
// red-black-tree node plus a heap-allocated key vector per visited cell:
// keys live concatenated in one arena, the table is a power-of-two slot
// array with linear probing, and a membership test costs one hash plus a
// short scan.
class GenSetSeen {
 public:
  explicit GenSetSeen(int k) : k_(static_cast<std::size_t>(k)) {
    table_.assign(64, kEmpty);
  }

  /// True when `gens` (sorted, |gens| == k) was not seen before.
  bool insert(const std::vector<int>& gens) {
    if ((static_cast<std::size_t>(size_) + 1) * 10 >= table_.size() * 7)
      grow();
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = hash(gens.data()) & mask;
    while (table_[slot] != kEmpty) {
      if (equals(table_[slot], gens.data())) return false;
      slot = (slot + 1) & mask;
    }
    table_[slot] = size_;
    keys_.insert(keys_.end(), gens.begin(), gens.end());
    ++size_;
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  std::uint64_t hash(const int* key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t a = 0; a < k_; ++a) {  // splitmix64 over the elements
      std::uint64_t z =
          h + static_cast<std::uint64_t>(static_cast<std::uint32_t>(key[a])) +
          0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      h = z ^ (z >> 31);
    }
    return h;
  }

  bool equals(std::uint32_t id, const int* key) const {
    const int* stored = keys_.data() + static_cast<std::size_t>(id) * k_;
    return std::equal(stored, stored + k_, key);
  }

  void grow() {
    std::vector<std::uint32_t> bigger(table_.size() * 2, kEmpty);
    const std::size_t mask = bigger.size() - 1;
    for (std::uint32_t id = 0; id < size_; ++id) {
      std::size_t slot =
          hash(keys_.data() + static_cast<std::size_t>(id) * k_) & mask;
      while (bigger[slot] != kEmpty) slot = (slot + 1) & mask;
      bigger[slot] = id;
    }
    table_.swap(bigger);
  }

  std::size_t k_;
  std::uint32_t size_ = 0;
  std::vector<int> keys_;             // concatenated size-k keys, insert order
  std::vector<std::uint32_t> table_;  // slot -> key id, kEmpty when free
};

// ------------------------------------------------------------------ BFS ----

// Shared BFS engine. When `restrict_to` >= 0, only cells whose generator
// set contains that site are expanded and reported (dominating-region
// traversal); otherwise all cells are reported (full enumeration). When
// `grid` is non-null it must index exactly `sites`; the candidate gathers
// then route through it. Neighbours are derived from the edge labels, so the
// traversal itself issues no point-location query.
std::vector<OrderKCell> bfs_cells(const std::vector<Vec2>& sites, int k,
                                  const Ring& window, int restrict_to,
                                  const std::vector<std::vector<int>>& seeds,
                                  const wsn::SpatialGrid* grid) {
  std::vector<OrderKCell> out;
  if (sites.empty() || k <= 0 || k > static_cast<int>(sites.size()) ||
      window.size() < 3)
    return out;

  GenSetSeen visited(k);
  std::queue<std::vector<int>> queue;
  auto push = [&](std::vector<int> gens) {
    std::sort(gens.begin(), gens.end());
    gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
    if (static_cast<int>(gens.size()) != k) return;
    if (restrict_to >= 0 &&
        !std::binary_search(gens.begin(), gens.end(), restrict_to))
      return;
    if (visited.insert(gens)) queue.push(std::move(gens));
  };
  for (const auto& s : seeds) push(s);

  CellScratch scratch;
  CellState st;
  auto& pc = perf::counters();
  while (!queue.empty()) {
    std::vector<int> gens = std::move(queue.front());
    queue.pop();

    if (!init_cell(sites, gens, window, scratch, st)) continue;
    if (grid) {
      cell_grid(sites, *grid, gens, scratch, st);
#ifndef NDEBUG
      {
        // Debug cross-check: the bounded gather must reproduce the
        // exhaustive kernel bit for bit. Its own work stays out of the
        // counters, which measure the grid path.
        const perf::KernelCounters before = pc;
        CellScratch ref_s;
        CellState ref_st;
        init_cell(sites, gens, window, ref_s, ref_st);
        cell_brute(sites, gens, ref_s, ref_st);
        pc = before;
        assert(scratch.cur == ref_s.cur && scratch.labels == ref_s.labels &&
               scratch.cuts == ref_s.cuts && scratch.touches == ref_s.touches &&
               "grid-backed order-k cell diverged from the brute kernel");
      }
#endif
    } else {
      cell_brute(sites, gens, scratch, st);
    }
    const Ring& cell = scratch.cur;
    if (cell.empty() || geom::area(cell) < 1e-18) continue;

    // Cross every non-window edge, in edge order, then every bisector that
    // still touches the finished cell: each crossing swaps one generator.
    auto cross = [&](const Swap& sw) {
      std::vector<int> across = gens;
      *std::find(across.begin(), across.end(), sw.h) = sw.j;
      push(std::move(across));
    };
    for (const int label : scratch.labels)
      if (label != kWindowEdge)
        cross(scratch.cuts[static_cast<std::size_t>(label)]);
    for (const Swap& t : scratch.touches) {
      const HalfPlane hp =
          geom::bisector_halfplane(sites[static_cast<std::size_t>(t.h)],
                                   sites[static_cast<std::size_t>(t.j)]);
      if (std::any_of(cell.begin(), cell.end(), [&](Vec2 v) {
            return hp.signed_dist(v) >= -geom::kEps;
          }))
        cross(t);
    }

    ++pc.cells_built;
    out.push_back(OrderKCell{std::move(gens), cell});
  }
  return out;
}

// Seed sets for a dominating-region traversal around u_i.
std::vector<std::vector<int>> region_seeds(const std::vector<Vec2>& sites,
                                           int i, int k,
                                           const wsn::SpatialGrid* grid) {
  const Vec2 ui = sites[static_cast<std::size_t>(i)];
  auto nearest = [&](Vec2 p) { return nearest_gens(sites, grid, p, k); };
  std::vector<std::vector<int>> seeds;
  seeds.push_back(nearest(ui));
  // Extra probe seeds around u_i guard against degenerate ties at u_i
  // itself (e.g. when the k-nearest set at u_i has an empty cell).
  for (int dir = 0; dir < 8; ++dir) {
    const double ang = dir * M_PI / 4.0;
    const Vec2 p = ui + Vec2{std::cos(ang), std::sin(ang)} * 1e-5;
    auto h = nearest(p);
    // Force i into the seed if the probe slipped outside its region.
    if (!std::count(h.begin(), h.end(), i) && !h.empty()) h.back() = i;
    seeds.push_back(std::move(h));
  }
  return seeds;
}

// Seed sets reaching every connected component of the full diagram.
std::vector<std::vector<int>> enumeration_seeds(const std::vector<Vec2>& sites,
                                                int k, const Ring& window,
                                                const wsn::SpatialGrid* grid) {
  auto nearest = [&](Vec2 p) { return nearest_gens(sites, grid, p, k); };
  std::vector<std::vector<int>> seeds;
  // Seeding from every site's own location reaches every connected
  // component of the diagram restricted to the window.
  for (std::size_t i = 0; i < sites.size(); ++i) seeds.push_back(nearest(sites[i]));
  seeds.push_back(nearest(geom::centroid(window)));
  return seeds;
}

// Below this site count the grid build outweighs the candidate savings; the
// exhaustive sort over a handful of sites is already cache-resident.
constexpr std::size_t kAutoGridThreshold = 32;

// Thread-local scratch index for the auto-accelerated entry points: rebuilt
// per call (O(n)), bucket storage reused across calls on the same thread.
// Per-round owners that issue many queries against one snapshot (the region
// providers) should prefer the explicit-grid overloads.
const wsn::SpatialGrid& scratch_grid(const std::vector<Vec2>& sites) {
  thread_local wsn::SpatialGrid grid;
  const geom::BBox bb = geom::bounding_box(sites);
  const double span = std::max(bb.width(), bb.height());
  const double cell = std::max(
      span / std::ceil(std::sqrt(static_cast<double>(sites.size()))), 1e-6);
  grid.rebuild(sites, cell);
  return grid;
}

}  // namespace

Ring order_k_cell(const std::vector<Vec2>& sites,
                  const std::vector<int>& gens,
                  const std::vector<int>& others_sorted, const Ring& window) {
  CellScratch s;
  CellState st;
  if (!init_cell(sites, gens, window, s, st)) return {};
  // Honour the caller-provided order exactly; the keys are unused.
  s.cand.clear();
  s.cand.reserve(others_sorted.size());
  for (int j : others_sorted) s.cand.emplace_back(0.0, j);
  clip_against(sites, gens, s.cand, 0, s.cand.size(), s, st);
  return std::move(s.cur);
}

std::vector<OrderKCell> dominating_region_cells(const std::vector<Vec2>& sites,
                                                int i, int k,
                                                const Ring& window) {
  if (i < 0 || i >= static_cast<int>(sites.size())) return {};
  if (sites.size() >= kAutoGridThreshold)
    return dominating_region_cells(sites, scratch_grid(sites), i, k, window);
  return dominating_region_cells_brute(sites, i, k, window);
}

std::vector<OrderKCell> dominating_region_cells(const std::vector<Vec2>& sites,
                                                const wsn::SpatialGrid& grid,
                                                int i, int k,
                                                const Ring& window) {
  if (i < 0 || i >= static_cast<int>(sites.size())) return {};
  return bfs_cells(sites, k, window, i, region_seeds(sites, i, k, &grid),
                   &grid);
}

std::vector<OrderKCell> dominating_region_cells_brute(
    const std::vector<Vec2>& sites, int i, int k, const Ring& window) {
  if (i < 0 || i >= static_cast<int>(sites.size())) return {};
  return bfs_cells(sites, k, window, i, region_seeds(sites, i, k, nullptr),
                   nullptr);
}

std::vector<OrderKCell> enumerate_order_k_cells(const std::vector<Vec2>& sites,
                                                int k, const Ring& window) {
  if (sites.size() >= kAutoGridThreshold)
    return enumerate_order_k_cells(sites, scratch_grid(sites), k, window);
  return enumerate_order_k_cells_brute(sites, k, window);
}

std::vector<OrderKCell> enumerate_order_k_cells(const std::vector<Vec2>& sites,
                                                const wsn::SpatialGrid& grid,
                                                int k, const Ring& window) {
  return bfs_cells(sites, k, window, /*restrict_to=*/-1,
                   enumeration_seeds(sites, k, window, &grid), &grid);
}

std::vector<OrderKCell> enumerate_order_k_cells_brute(
    const std::vector<Vec2>& sites, int k, const Ring& window) {
  return bfs_cells(sites, k, window, /*restrict_to=*/-1,
                   enumeration_seeds(sites, k, window, nullptr), nullptr);
}

}  // namespace laacad::vor
