#include "voronoi/orderk.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/perf_counters.hpp"
#include "geometry/halfplane.hpp"
#include "voronoi/sites.hpp"

namespace laacad::vor {

using geom::HalfPlane;
using geom::Ring;
using geom::Vec2;

namespace {

// ---------------------------------------------------------- cell engine ----
//
// One order-k cell is the window clipped against bisectors with out-sites
// taken in ascending distance from the reference generator, with the Lemma
// pruning bound or the CellBound stop certificate ending the scan early and
// the reject certificate sparing most bisector scans before it. The brute
// and grid paths share this machinery; they differ only in how the
// candidate list is produced.
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

// Slack of the certificates, in metres: kCertAbs + kCertRel * scale, where
// the scale bounds every length and coordinate magnitude involved. Why it
// suffices: a certificate proves |v - u_j| - |v - u_h| > X for every vertex
// v, with X = slack less the rounding of the bound itself. The signed
// distance of v from bisector(h, j),
//   (|v - u_h| - |v - u_j|) (|v - u_h| + |v - u_j|) / (2 |u_j - u_h|),
// is then below -X / 2, since |v - u_h| + |v - u_j| >= |u_j - u_h|.
// geom::bisector_side answers kInside once every computed distance is below
// -kEps - band, band = kDistFilter (|w.x| + |w.y|), w = v - midpoint; a
// computed distance is within 1e-15 (|w.x| + |w.y|) plus a few ulps of the
// coordinates of the true one, and |w| <= (|v - u_h| + |v - u_j|) / 2
// <= L + X / 2, with L = rv + R_H (stop), R_h + r_c or R_h + rv (reject).
// So X / 2 > kEps + 1.5e-12 (L + X / 2) + ulps suffices, that is
// X > 2.01 kEps + 3.01e-12 L + ulps. The scale, R_H + r_c + |c.x| + |c.y|,
// is at least L / 2 and the coordinates' magnitude, so kCertAbs = 4 kEps
// and kCertRel = 1e-10 cover that 30 times over, with room for the
// rounding of the bound (a few ulps of each sqrt, sum and square) and for a
// stale bound (a clip's new vertices lie on old edges, up to a few ulps of
// the coordinates per clip).
constexpr double kCertAbs = 4.0 * geom::kEps;
constexpr double kCertRel = 1e-10;

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
  std::vector<Vec2> gen_pts;                 // generators other than ref
  // The window's rv for the last ref seen. A dominating-region BFS keeps
  // one ref while its window is a polygon around it, whose equidistant
  // vertices would each cost a hypot per cell.
  Vec2 window_ref{std::nan(""), std::nan("")};
  double window_rv = 0;
};

// The pruning state. rv, the max distance from ref to any current cell
// vertex, is exact only on demand: the Lemma test decides from the max
// squared distance, and only an unsure test needs rv's bits.
struct CellState {
  Vec2 ref;           // first generator: reference for ordering and pruning
  double dmax_h = 0;  // max distance from ref to any generator
  double reach2 = 0;  // (2 sqrt(rv2) + dmax_h)^2, the Lemma bound squared
  double rv = 0;      // valid when rv_known
  bool rv_known = false;
  CellBound bound;    // the certificates, fitted to the current ring

  // One pass over the ring refits every bound.
  void set_ring(const std::vector<Vec2>& sites, const std::vector<int>& gens,
                const Ring& cur) {
    bound.fit(sites, gens, cur);
    const double reach = 2.0 * std::sqrt(bound.rv2()) + dmax_h;
    reach2 = reach * reach;
    rv_known = false;
  }

  double exact_rv(const Ring& cur) {
    if (!rv_known) {
      rv = geom::max_dist(ref, cur);
      rv_known = true;
    }
    return rv;
  }
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
  // ref itself adds only the max's starting 0.
  s.gen_pts.clear();
  for (auto h = gens.begin() + 1; h != gens.end(); ++h)
    s.gen_pts.push_back(sites[static_cast<std::size_t>(*h)]);
  st.dmax_h = geom::max_dist(st.ref, s.gen_pts);
  st.set_ring(sites, gens, s.cur);
  if (!(st.ref == s.window_ref)) {
    s.window_ref = st.ref;
    s.window_rv = geom::max_dist(st.ref, s.cur);
  }
  st.rv = s.window_rv;
  st.rv_known = true;
  perf::counters().dist2_evals += gens.size();
  return true;
}

// The pruning test dist(u_j, ref) - rv > rv + dmax_h, bit for bit, decided
// from s = dist2(u_j, ref) against reach2 outside the kDistFilter margin.
// sqrt(rv2) is within ~4 ulps of rv, and the sums, the subtraction and the
// squares round by a few more ulps of 2 rv + dmax_h (all terms are
// non-negative): some 20 ulps in all, far inside that margin.
bool beyond_bound(double s, Vec2 uj, const Ring& cur, CellState& st) {
  if (const int c = geom::compare_squares(s, st.reach2)) return c > 0;
  ++perf::counters().exact_fallbacks;
  const double rv = st.exact_rv(cur);
  return geom::dist(uj, st.ref) - rv > rv + st.dmax_h;
}

#ifndef NDEBUG
// Debug check of a stop certificate: every out-site from cand[from] on
// leaves the ring strictly inside its bisector with every generator.
void assert_inside_from(const std::vector<Vec2>& sites,
                        const std::vector<int>& gens,
                        const std::vector<std::pair<double, int>>& cand,
                        std::size_t from, const Ring& ring) {
  for (std::size_t a = from; a < cand.size(); ++a)
    for (int h : gens)
      assert(geom::bisector_side_exact(
                 sites[static_cast<std::size_t>(h)],
                 sites[static_cast<std::size_t>(cand[a].second)],
                 ring) == geom::RingSide::kInside &&
             "stop certificate skipped a bisector that reaches the cell");
}
#endif

// Clip scratch.cur against the out-sites cand[from..to) (in the order
// given; both paths supply ascending (dist2, index), and every key is
// dist2(u_j, ref)). Returns true when the scan stopped early — a bound
// fired or the cell emptied — which proves no out-site later in the
// canonical order can cut the cell.
bool clip_against(const std::vector<Vec2>& sites, const std::vector<int>& gens,
                  const std::vector<std::pair<double, int>>& cand,
                  std::size_t from, std::size_t to, CellScratch& s,
                  CellState& st) {
  auto& pc = perf::counters();
  for (std::size_t a = from; a < to; ++a) {
    if (s.cur.empty()) return true;
    const Vec2 uj = sites[static_cast<std::size_t>(cand[a].second)];
    // Stop certificate first: it leaves every later out-site's bisectors
    // strictly outside the cell, so stopping changes no output bit.
    ++pc.dist2_evals;
    if (st.bound.stops(cand[a].first)) {
#ifndef NDEBUG
      assert_inside_from(sites, gens, cand, a, s.cur);
#endif
      return true;
    }
    // Lemma pruning: for any v in the cell, dist(v, u_j) >= |u_j - ref| - rv
    // and dist(v, u_h) <= rv + dmax_h. If the former exceeds the latter for
    // the nearest remaining out-site, no later out-site can cut either.
    if (beyond_bound(cand[a].first, uj, s.cur, st)) return true;
    const int j = cand[a].second;
    const double c2 = geom::dist2(uj, st.bound.centre());
    ++pc.dist2_evals;
    bool cut = false;
    for (std::size_t g = 0; g < gens.size(); ++g) {
      const int h = gens[g];
      const Vec2 uh = sites[static_cast<std::size_t>(h)];
      // The reject certificate holds for the ring it was fitted to and for
      // every ring clipped from it since.
      if (st.bound.rejects(g, cand[a].first, c2)) {
        assert(geom::bisector_side_exact(uh, uj, s.cur) ==
                   geom::RingSide::kInside &&
               "reject certificate skipped a bisector that reaches the cell");
        continue;
      }
      // Does the bisector actually cut the current cell? kTouch: some
      // vertex lies on it (within kEps).
      const geom::RingSide side = geom::bisector_side(uh, uj, s.cur);
      if (side != geom::RingSide::kCut) {
        if (side == geom::RingSide::kTouch) s.touches.push_back(Swap{h, j});
        continue;
      }
      const HalfPlane hp = geom::bisector_halfplane(uh, uj);
      s.cuts.push_back(Swap{h, j});
      geom::EdgeLabels labels{s.labels, s.next_labels,
                              static_cast<int>(s.cuts.size()) - 1};
      geom::clip_ring_into(s.cur, hp, s.next, geom::kEps, &labels);
      std::swap(s.cur, s.next);
      std::swap(s.labels, s.next_labels);
      cut = true;
      if (s.cur.empty()) break;
    }
    if (cut && !s.cur.empty()) st.set_ring(sites, gens, s.cur);
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
// generator. Once the gather radius R reaches the stop radius
// rv + R_H + slack, any site beyond R has dist2 above R^2 >= stop^2 and
// fires the stop certificate outright, so the brute scan would have stopped
// at it — the bounded candidate list yields the bit-identical cell. If
// every site is gathered before the bound closes, the list has degenerated
// to the exhaustive one (counted as a kernel fallback) and equality is
// trivial.
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
  double radius =
      std::min(st.bound.stop_radius(), st.dmax_h + grid.cell_size());
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
    const double bound = st.bound.stop_radius();
    if (radius >= bound) return;  // every ungathered site stops the scan
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
      // Some vertex at signed distance >= -kEps.
      if (geom::bisector_side(sites[static_cast<std::size_t>(t.h)],
                              sites[static_cast<std::size_t>(t.j)],
                              cell) != geom::RingSide::kInside)
        cross(t);
    }

    ++pc.cells_built;
    out.push_back(OrderKCell{std::move(gens), cell});
  }
  return out;
}

// Seed sets for a dominating-region traversal around u_i. The k nearest
// sites are the prefix of the k + 1 nearest in the canonical (dist2, index)
// order, so one query yields the first seed and the seed certificate.
std::vector<std::vector<int>> region_seeds(const std::vector<Vec2>& sites,
                                           int i, int k,
                                           const wsn::SpatialGrid* grid) {
  const Vec2 ui = sites[static_cast<std::size_t>(i)];
  auto nearest = [&](Vec2 p) { return nearest_gens(sites, grid, p, k); };
  std::vector<std::vector<int>> seeds;
  std::vector<int> first = nearest_gens(sites, grid, ui, k + 1);
  const bool redundant = seed_probes_redundant(sites, i, k, first);
  if (first.size() > static_cast<std::size_t>(k))
    first.resize(static_cast<std::size_t>(k));
  seeds.push_back(std::move(first));
  // Every probe would push the first seed again: a visited-set no-op.
  if (redundant) return seeds;
  // Extra probe seeds around u_i guard against degenerate ties at u_i
  // itself (e.g. when the k-nearest set at u_i has an empty cell).
  for (int dir = 0; dir < 8; ++dir) {
    const double ang = dir * M_PI / 4.0;
    const Vec2 p = ui + Vec2{std::cos(ang), std::sin(ang)} * kSeedProbeOffset;
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
// exhaustive sort over a handful of sites is already cache-resident. The
// brute path carries real traffic: kernel calls below the threshold were
// 27 % of deploy_global's, 10 % of deploy_localized's and 94 % of
// campaign_matrix's (perfbench workloads, seed 3, 6 s runs).
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

void CellBound::fit(const std::vector<Vec2>& sites,
                    const std::vector<int>& gens, const Ring& ring) {
  // One pass over the vertices: rv2 and their bounding box.
  const Vec2 ref = sites[static_cast<std::size_t>(gens.front())];
  rv2_ = geom::max_dist2(ref, ring);
  Vec2 lo = ring.front(), hi = ring.front();
  for (const Vec2 v : ring) {
    lo = {std::min(lo.x, v.x), std::min(lo.y, v.y)};
    hi = {std::max(hi.x, v.x), std::max(hi.y, v.y)};
  }
  // The box's circumscribed disk holds every vertex, so R_h <= |u_h - c| +
  // r_c for each generator but ref, whose R_h is rv itself. Each R_h waits
  // in its Reach until the slack is known.
  centre_ = geom::midpoint(lo, hi);
  const double rc = 0.5 * std::sqrt(geom::dist2(lo, hi));
  const double rv = std::sqrt(rv2_);
  reach_.resize(gens.size());
  reach_.front().centre2 = rv;
  double rh = rv;
  for (std::size_t g = 1; g < gens.size(); ++g) {
    reach_[g].centre2 =
        std::sqrt(geom::dist2(sites[static_cast<std::size_t>(gens[g])],
                              centre_)) +
        rc;
    rh = std::max(rh, reach_[g].centre2);
  }
  perf::counters().dist2_evals += ring.size() + gens.size() - 1;
  const double slack =
      kCertAbs +
      kCertRel * (rh + rc + std::abs(centre_.x) + std::abs(centre_.y));
  if (!std::isfinite(slack)) {  // a NaN or inf vertex: certify nothing
    stop_ = stop2_ = std::numeric_limits<double>::infinity();
    reach_.assign(gens.size(), Reach{stop2_, stop2_});
    return;
  }
  stop_ = rv + rh + slack;
  stop2_ = stop_ * stop_;
  for (Reach& r : reach_) {
    const double rg = r.centre2;  // R_h
    r.centre2 = (rg + rc + slack) * (rg + rc + slack);
    r.ref2 = (rg + rv + slack) * (rg + rv + slack);
  }
}

bool seed_probes_redundant(const std::vector<Vec2>& sites, int i, int k,
                           const std::vector<int>& nearest) {
  const auto kk = static_cast<std::size_t>(k);
  if (k <= 0 || nearest.size() < kk ||
      std::find(nearest.begin(), nearest.begin() + k, i) ==
          nearest.begin() + k)
    return false;
  if (nearest.size() == kk) return true;  // no other site to swap in
  // A probe point p lies within kSeedProbeOffset (plus ulps of u_i) of
  // u_i, so each site's distance from p is within that of its distance
  // from u_i: a gap over twice the offset plus slack keeps the k nearest
  // sites at p, and their (dist2, index) order's first k, the same set.
  const Vec2 ui = sites[static_cast<std::size_t>(i)];
  const auto dist_to = [&](int s) {
    return std::sqrt(geom::dist2(sites[static_cast<std::size_t>(s)], ui));
  };
  const double dk = dist_to(nearest[kk - 1]), dk1 = dist_to(nearest[kk]);
  perf::counters().dist2_evals += 2;
  const double slack =
      kCertAbs + kCertRel * (dk1 + std::abs(ui.x) + std::abs(ui.y));
  return dk1 - dk > 2.0 * kSeedProbeOffset + slack;
}

Ring order_k_cell(const std::vector<Vec2>& sites,
                  const std::vector<int>& gens,
                  const std::vector<int>& others_sorted, const Ring& window) {
  CellScratch s;
  CellState st;
  if (!init_cell(sites, gens, window, s, st)) return {};
  // Honour the caller-provided order exactly; the keys feed the pruning
  // test, which stops at the first site past its bound and so is only
  // sound when the keys never decrease.
  s.cand.clear();
  s.cand.reserve(others_sorted.size());
  for (int j : others_sorted) {
    const double key = geom::dist2(sites[static_cast<std::size_t>(j)], st.ref);
    if (!s.cand.empty() && key < s.cand.back().first)
      throw std::invalid_argument(
          "order_k_cell: others_sorted is not in ascending distance from "
          "gens.front(); dist2 decreases at position " +
          std::to_string(s.cand.size()));
    s.cand.emplace_back(key, j);
  }
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
