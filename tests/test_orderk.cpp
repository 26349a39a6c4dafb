#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "common/perf_counters.hpp"
#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "voronoi/orderk.hpp"
#include "voronoi/sites.hpp"
#include "wsn/spatial_grid.hpp"

namespace laacad::vor {
namespace {

using geom::Ring;
using geom::Vec2;

Ring window100() { return {{0, 0}, {100, 0}, {100, 100}, {0, 100}}; }

// Membership oracle from Proposition 1.
bool in_region_brute(const std::vector<Vec2>& sites, int i, int k, Vec2 v) {
  return closer_count(sites, i, v) <= k - 1;
}

bool in_cells(const std::vector<OrderKCell>& cells, Vec2 v, double eps) {
  for (const auto& c : cells)
    if (geom::contains_point(c.poly, v, eps)) return true;
  return false;
}

// ------------------------------------------------------------- helpers ----

TEST(Sites, SeparateSitesPushesApartCoincident) {
  std::vector<Vec2> pts = {{10, 10}, {10, 10}, {10 + 1e-12, 10}, {50, 50}};
  auto sep = separate_sites(pts);
  for (std::size_t a = 0; a < sep.size(); ++a)
    for (std::size_t b = a + 1; b < sep.size(); ++b)
      EXPECT_GE(geom::dist(sep[a], sep[b]), kMinSiteSeparation * 0.9);
  // Far points untouched.
  EXPECT_EQ(sep[3], Vec2(50, 50));
}

TEST(Sites, KNearestBrute) {
  std::vector<Vec2> pts = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  auto kn = k_nearest_brute(pts, {0.1, 0}, 2);
  EXPECT_EQ(kn, (std::vector<int>{0, 1}));
}

TEST(Sites, CloserCount) {
  std::vector<Vec2> pts = {{0, 0}, {10, 0}, {20, 0}};
  EXPECT_EQ(closer_count(pts, 2, {0, 0}), 2);
  EXPECT_EQ(closer_count(pts, 0, {0, 0}), 0);
  EXPECT_EQ(closer_count(pts, 1, {9, 0}), 0);
}

bool same_bits(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i].x) !=
            std::bit_cast<std::uint64_t>(b[i].x) ||
        std::bit_cast<std::uint64_t>(a[i].y) !=
            std::bit_cast<std::uint64_t>(b[i].y))
      return false;
  return true;
}

// The prescreens only decide whether the pair loop runs, so separate_sites
// must equal separate_sites_brute bit for bit. Inputs sit on both sides
// of the sweep's cut-off: a column of equal x (the sweep's window never
// closes on it), pairs planted exactly min_sep apart and just under, and
// a power-of-two min_sep on which the planted gap is exact.
TEST(Sites, PrescreenMatchesThePairLoopBitForBit) {
  Rng rng(29);
  int separated = 0, untouched = 0;
  for (const double min_sep : {kMinSiteSeparation, 0x1p-20}) {
    for (const int n : {2, 12, 75, 256, 300}) {
      for (int variant = 0; variant < 6; ++variant) {
        std::vector<Vec2> pts;
        for (int i = 0; i < n; ++i) {
          // Coordinates on a 2^-10 lattice, so a 0x1p-20 step is exact.
          const auto lattice = [&] {
            return std::floor(rng.uniform(0, 100) * 1024.0) / 1024.0;
          };
          pts.push_back({lattice(), lattice()});
        }
        const std::size_t a = 0, b = pts.size() / 2;
        if (variant == 1)  // a column of equal x, spaced 1 m
          for (std::size_t i = 0; i < pts.size(); i += 3)
            pts[i] = {50.0, static_cast<double>(i % 97)};
        if (variant == 2 && n > 1) pts[b] = pts[a] + Vec2{min_sep, 0.0};
        if (variant == 3 && n > 1) pts[b] = pts[a] + Vec2{0.0, min_sep};
        if (variant == 4 && n > 1)
          pts[b] = pts[a] + Vec2{std::nextafter(min_sep, 0.0), 0.0};
        if (variant == 5 && n > 1)
          pts[b] = pts[a] + Vec2{0.6 * min_sep, 0.7 * min_sep};
        const auto fast = separate_sites(pts, min_sep);
        const auto brute = separate_sites_brute(pts, min_sep);
        EXPECT_TRUE(same_bits(fast, brute))
            << "min_sep=" << min_sep << " n=" << n << " variant=" << variant;
        (same_bits(brute, pts) ? untouched : separated) += 1;
      }
    }
  }
  EXPECT_GT(separated, 0);
  EXPECT_GT(untouched, 0);
}

// A NaN or a coordinate beyond int64 cells (about 9.2e11 m at 1e-7 m)
// cannot be keyed or ordered; both prescreens hand such lists to the pair
// loop instead of casting them.
TEST(Sites, NonFiniteOrFarCoordinatesGoToThePairLoop) {
  Rng rng(31);
  for (const int n : {300, 40}) {
    for (const Vec2 bad : {Vec2{std::nan(""), 5.0}, Vec2{1e13, 0.0},
                           Vec2{-3.0, -1e300}, Vec2{0.0, HUGE_VAL}}) {
      std::vector<Vec2> pts;
      for (int i = 0; i < n; ++i)
        pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
      pts[static_cast<std::size_t>(n / 3)] = bad;
      EXPECT_TRUE(same_bits(separate_sites(pts), separate_sites_brute(pts)))
          << "n=" << n << " bad=(" << bad.x << "," << bad.y << ")";
    }
  }
}

// order_k_cell's pruning stops at the first out-site past its bound, so an
// out-site list in index order would return a cell several times too
// large (1 219.6 m^2 here, against 341.2 m^2 sorted). It must refuse it,
// naming the first position where dist2 from gens.front() decreases.
// Equal distances stay legal (the lattice oracles below pass them).
TEST(OrderKCellInput, RefusesOutSitesNotSortedByDistance) {
  Rng rng(2);
  std::vector<Vec2> pts;
  for (int i = 0; i < 40; ++i)
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  const auto sites = separate_sites(pts);
  const std::vector<int> gens = k_nearest_brute(sites, sites[0], 1);
  const Vec2 ref = sites[static_cast<std::size_t>(gens.front())];
  std::vector<int> others;
  for (int i = 0; i < 40; ++i)
    if (i != gens.front()) others.push_back(i);
  std::size_t first_drop = 0;
  for (std::size_t p = 1; p < others.size() && first_drop == 0; ++p)
    if (geom::dist2(sites[static_cast<std::size_t>(others[p])], ref) <
        geom::dist2(sites[static_cast<std::size_t>(others[p - 1])], ref))
      first_drop = p;
  ASSERT_GT(first_drop, 0u) << "index order happens to be sorted";
  try {
    (void)order_k_cell(sites, gens, others, window100());
    FAIL() << "an unsorted out-site list was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("position " +
                                         std::to_string(first_drop)),
              std::string::npos)
        << e.what();
  }
  std::stable_sort(others.begin(), others.end(), [&](int a, int b) {
    return geom::dist2(sites[static_cast<std::size_t>(a)], ref) <
           geom::dist2(sites[static_cast<std::size_t>(b)], ref);
  });
  EXPECT_NEAR(geom::area(order_k_cell(sites, gens, others, window100())),
              341.2, 0.05);
}

// ------------------------------------------------------- order-1 cells ----

// The classic Voronoi cell of site i: its dominating region at k = 1 is one
// convex cell.
Ring order_1_cell(const std::vector<Vec2>& sites, int i, const Ring& window) {
  return dominating_region_cells(sites, i, 1, window).front().poly;
}

TEST(Order1, TwoSitesSplitWindow) {
  std::vector<Vec2> sites = {{25, 50}, {75, 50}};
  Ring c0 = order_1_cell(sites, 0, window100());
  Ring c1 = order_1_cell(sites, 1, window100());
  EXPECT_NEAR(geom::area(c0), 5000.0, 1e-6);
  EXPECT_NEAR(geom::area(c1), 5000.0, 1e-6);
  EXPECT_TRUE(geom::contains_point(c0, {10, 50}));
  EXPECT_FALSE(geom::contains_point(c0, {90, 50}));
}

TEST(Order1, SingleSiteOwnsWindow) {
  std::vector<Vec2> sites = {{50, 50}};
  Ring c = order_1_cell(sites, 0, window100());
  EXPECT_NEAR(geom::area(c), 10000.0, 1e-6);
}

TEST(Order1, CellsPartitionWindow) {
  laacad::Rng rng(21);
  std::vector<Vec2> sites;
  for (int i = 0; i < 25; ++i)
    sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
  double total = 0.0;
  for (int i = 0; i < 25; ++i)
    total += geom::area(order_1_cell(sites, i, window100()));
  EXPECT_NEAR(total, 10000.0, 1e-3);
}

// ----------------------------------------------- dominating regions -------

TEST(DominatingRegion, K2TwoSitesIsWholeWindow) {
  // With only two sites and k = 2, every point is dominated by both.
  std::vector<Vec2> sites = {{25, 50}, {75, 50}};
  auto cells = dominating_region_cells(sites, 0, 2, window100());
  double total = 0.0;
  for (const auto& c : cells) total += c.area();
  EXPECT_NEAR(total, 10000.0, 1e-6);
}

TEST(DominatingRegion, ContainsOwnSite) {
  laacad::Rng rng(31);
  std::vector<Vec2> sites;
  for (int i = 0; i < 20; ++i)
    sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
  for (int k = 1; k <= 4; ++k) {
    auto cells = dominating_region_cells(sites, 7, k, window100());
    EXPECT_TRUE(in_cells(cells, sites[7], 1e-6)) << "k=" << k;
  }
}

TEST(DominatingRegion, GrowsWithK) {
  laacad::Rng rng(32);
  std::vector<Vec2> sites;
  for (int i = 0; i < 20; ++i)
    sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
  double prev = 0.0;
  for (int k = 1; k <= 5; ++k) {
    auto cells = dominating_region_cells(sites, 3, k, window100());
    double a = 0.0;
    for (const auto& c : cells) a += c.area();
    EXPECT_GT(a, prev - 1e-9) << "k=" << k;
    prev = a;
  }
}

TEST(DominatingRegion, CellsAreConvexAndCarryGeneratorI) {
  laacad::Rng rng(33);
  std::vector<Vec2> sites;
  for (int i = 0; i < 30; ++i)
    sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
  auto cells = dominating_region_cells(sites, 11, 3, window100());
  ASSERT_FALSE(cells.empty());
  for (const auto& c : cells) {
    EXPECT_EQ(c.gens.size(), 3u);
    EXPECT_TRUE(std::binary_search(c.gens.begin(), c.gens.end(), 11));
    EXPECT_TRUE(geom::is_convex(c.poly)) << "cell with " << c.poly.size()
                                         << " vertices";
  }
}

// The heart of the construction: BFS output must match the Prop.-1
// membership oracle at random sample points, for many k and seeds.
struct RegionCase {
  int seed;
  int k;
};

class RegionProperty : public ::testing::TestWithParam<RegionCase> {};

TEST_P(RegionProperty, MatchesBruteForceMembership) {
  const auto param = GetParam();
  laacad::Rng rng(param.seed);
  std::vector<Vec2> sites;
  const int n = 12 + rng.uniform_int(0, 20);
  for (int i = 0; i < n; ++i)
    sites.push_back({rng.uniform(2, 98), rng.uniform(2, 98)});
  sites = separate_sites(sites);
  const int i = rng.uniform_int(0, n - 1);

  auto cells = dominating_region_cells(sites, i, param.k, window100());

  int checked = 0;
  for (int t = 0; t < 600; ++t) {
    const Vec2 v{rng.uniform(0, 100), rng.uniform(0, 100)};
    const bool brute = in_region_brute(sites, i, param.k, v);
    const bool poly = in_cells(cells, v, 1e-6);
    // Skip points too close to any bisector boundary (ties).
    const double di = geom::dist(sites[static_cast<size_t>(i)], v);
    bool near_tie = false;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      if (std::abs(geom::dist(sites[static_cast<size_t>(j)], v) - di) < 1e-4)
        near_tie = true;
    }
    if (near_tie) continue;
    ++checked;
    EXPECT_EQ(brute, poly) << "at " << v.x << "," << v.y << " i=" << i
                           << " k=" << param.k << " n=" << n;
  }
  EXPECT_GT(checked, 400);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegionProperty,
    ::testing::Values(RegionCase{1, 1}, RegionCase{2, 1}, RegionCase{3, 2},
                      RegionCase{4, 2}, RegionCase{5, 3}, RegionCase{6, 3},
                      RegionCase{7, 4}, RegionCase{8, 4}, RegionCase{9, 5},
                      RegionCase{10, 6}, RegionCase{11, 8}, RegionCase{12, 2},
                      RegionCase{13, 3}, RegionCase{14, 5}, RegionCase{15, 7}),
    [](const ::testing::TestParamInfo<RegionCase>& tpi) {
      return "seed" + std::to_string(tpi.param.seed) + "_k" +
             std::to_string(tpi.param.k);
    });

// Star-shapedness (the property the BFS correctness rests on): along the
// segment from u_i to any region point, membership never flips off.
class StarShapedProperty : public ::testing::TestWithParam<int> {};

TEST_P(StarShapedProperty, MembershipMonotoneAlongRays) {
  laacad::Rng rng(500 + GetParam());
  std::vector<Vec2> sites;
  const int n = 15;
  for (int i = 0; i < n; ++i)
    sites.push_back({rng.uniform(2, 98), rng.uniform(2, 98)});
  const int i = rng.uniform_int(0, n - 1);
  const int k = 1 + rng.uniform_int(0, 4);
  const Vec2 ui = sites[static_cast<size_t>(i)];
  for (int t = 0; t < 300; ++t) {
    const Vec2 v{rng.uniform(0, 100), rng.uniform(0, 100)};
    if (!in_region_brute(sites, i, k, v)) continue;
    // All interpolants toward u_i stay in the region.
    for (double s : {0.2, 0.5, 0.8}) {
      EXPECT_TRUE(in_region_brute(sites, i, k, geom::lerp(ui, v, s)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StarShapedProperty, ::testing::Range(0, 10));

// ------------------------------------- grid path vs exhaustive path -------

// The determinism contract of the accelerated kernel: the grid-backed path
// (bounded candidate gathers, grid seeds) must reproduce the exhaustive
// kernel bit for bit — identical generator sets, identical vertices, in
// identical order — for any site count, k, and window.
TEST(GridKernel, BitIdenticalToBruteKernel) {
  laacad::Rng rng(71);
  for (int round = 0; round < 6; ++round) {
    const int n = 40 + rng.uniform_int(0, 160);  // above the auto threshold
    std::vector<Vec2> sites;
    for (int i = 0; i < n; ++i)
      sites.push_back({rng.uniform(2, 198), rng.uniform(2, 198)});
    sites = separate_sites(sites);
    const Ring window = {{0, 0}, {200, 0}, {200, 200}, {0, 200}};
    const int k = 1 + rng.uniform_int(0, 3);
    const int i = rng.uniform_int(0, n - 1);

    const auto brute = dominating_region_cells_brute(sites, i, k, window);
    const auto fast = dominating_region_cells(sites, i, k, window);
    ASSERT_EQ(fast.size(), brute.size()) << "n=" << n << " k=" << k;
    for (std::size_t c = 0; c < brute.size(); ++c) {
      EXPECT_EQ(fast[c].gens, brute[c].gens) << "cell " << c;
      EXPECT_EQ(fast[c].poly, brute[c].poly) << "cell " << c;  // bitwise
    }
  }
}

TEST(GridKernel, ExplicitGridOverloadMatchesBrute) {
  // Small site sets (below the auto threshold) through the explicit-grid
  // overload: exercises the bounded gather where the grid is coarse.
  laacad::Rng rng(72);
  std::vector<Vec2> sites;
  for (int i = 0; i < 18; ++i)
    sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
  sites = separate_sites(sites);
  wsn::SpatialGrid grid(sites, 12.0);
  for (int k = 1; k <= 4; ++k) {
    for (int i : {0, 7, 17}) {
      const auto brute = dominating_region_cells_brute(sites, i, k, window100());
      const auto fast = dominating_region_cells(sites, grid, i, k, window100());
      ASSERT_EQ(fast.size(), brute.size()) << "i=" << i << " k=" << k;
      for (std::size_t c = 0; c < brute.size(); ++c) {
        EXPECT_EQ(fast[c].gens, brute[c].gens);
        EXPECT_EQ(fast[c].poly, brute[c].poly);
      }
    }
  }
}

// Order-k partition invariant, both kernels: the enumerated cells tile the
// window — areas sum to the window area and distinct cells have (numerically)
// zero pairwise overlap.
struct PartitionCase {
  int seed;
  int k;
  bool grid;
};

class PartitionInvariant : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionInvariant, CellsTileTheWindow) {
  const auto param = GetParam();
  laacad::Rng rng(param.seed);
  const int n = 10 + rng.uniform_int(0, 10);
  std::vector<Vec2> sites;
  for (int i = 0; i < n; ++i)
    sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
  sites = separate_sites(sites);

  std::vector<OrderKCell> cells;
  if (param.grid) {
    wsn::SpatialGrid grid(sites, 15.0);
    cells = enumerate_order_k_cells(sites, grid, param.k, window100());
  } else {
    cells = enumerate_order_k_cells_brute(sites, param.k, window100());
  }
  ASSERT_FALSE(cells.empty());

  double total = 0.0;
  for (const auto& c : cells) total += c.area();
  EXPECT_NEAR(total, 10000.0, 1e-2) << "n=" << n << " k=" << param.k;

  // Pairwise overlap: intersect every pair of convex cells; shared edges
  // contribute degenerate slivers only.
  double overlap = 0.0;
  for (std::size_t a = 0; a < cells.size(); ++a)
    for (std::size_t b = a + 1; b < cells.size(); ++b)
      overlap +=
          geom::area(geom::sutherland_hodgman(cells[a].poly, cells[b].poly));
  EXPECT_NEAR(overlap, 0.0, 1e-2) << "n=" << n << " k=" << param.k;
}

INSTANTIATE_TEST_SUITE_P(
    BothKernels, PartitionInvariant,
    ::testing::Values(PartitionCase{81, 1, false}, PartitionCase{81, 1, true},
                      PartitionCase{82, 2, false}, PartitionCase{82, 2, true},
                      PartitionCase{83, 3, false}, PartitionCase{83, 3, true},
                      PartitionCase{84, 2, false}, PartitionCase{84, 2, true},
                      PartitionCase{85, 3, false}, PartitionCase{85, 3, true}),
    [](const ::testing::TestParamInfo<PartitionCase>& tpi) {
      return "seed" + std::to_string(tpi.param.seed) + "_k" +
             std::to_string(tpi.param.k) +
             (tpi.param.grid ? "_grid" : "_brute");
    });

// ------------------------------------------------ sliver-edge regression ---

// Near-degenerate configuration: sites nearly cocircular plus a center site
// produce order-k vertices where many cells meet through very short edges.
// An early BFS skipped every edge shorter than a probe threshold, so a
// neighbouring cell reachable only through such an edge was silently
// dropped from the traversal — the enumerated "partition" had a hole and
// dominating regions lost area. The kernel now derives the neighbour across
// every edge, however short, from the edge's bisector label.
TEST(SliverEdges, NearCocircularPartitionHasNoHoles) {
  for (int seed = 0; seed < 4; ++seed) {
    laacad::Rng rng(900 + seed);
    std::vector<Vec2> sites;
    const int m = 10 + seed;
    for (int i = 0; i < m; ++i) {
      // Cocircular up to ~1e-7 jitter: the resulting diagram is packed
      // with sliver edges.
      const double ang = 2.0 * M_PI * i / m + rng.uniform(-1e-7, 1e-7);
      sites.push_back(Vec2{50.0 + 30.0 * std::cos(ang),
                           50.0 + 30.0 * std::sin(ang)});
    }
    sites.push_back({50.0 + rng.uniform(-1e-7, 1e-7), 50.0});
    sites = separate_sites(sites);

    for (int k = 1; k <= 3; ++k) {
      for (bool grid : {false, true}) {
        std::vector<OrderKCell> cells;
        if (grid) {
          wsn::SpatialGrid g(sites, 10.0);
          cells = enumerate_order_k_cells(sites, g, k, window100());
        } else {
          cells = enumerate_order_k_cells_brute(sites, k, window100());
        }
        double total = 0.0;
        for (const auto& c : cells) total += c.area();
        EXPECT_NEAR(total, 10000.0, 1e-2)
            << "seed=" << seed << " k=" << k << " grid=" << grid;
      }
    }
  }
}

TEST(SliverEdges, RegressionLostCellOnJitteredLattice) {
  // Pinned regression config (found by searching an early kernel against
  // a later one): a jittered 23 m lattice, whose squares put four sites
  // nearly on a circle. At k = 2 the cell V_{2,4} — the sliver between the
  // two diagonal sites of the middle square — attaches to the rest of the
  // diagram only through very short edges. A BFS that skipped short edges
  // never discovered the cell: full enumeration was missing {2,4}, and the
  // dominating regions of sites 2 and 4 each silently lost a cell.
  const std::vector<Vec2> sites = {
      {14.999143405333413, 15.000181380951267},
      {37.999986925745873, 15.000003883196152},
      {61.000003385859358, 15.00000401939257},
      {15.000001532587362, 38.000004241566685},
      {37.999998829368671, 37.999999736047499},
      {61.000056592318181, 38.000016703859458},
      {14.999999000044021, 61.000000223783495},
  };
  const std::vector<int> lost = {2, 4};

  auto has_gens = [&](const std::vector<OrderKCell>& cells) {
    for (const auto& c : cells)
      if (c.gens == lost) return true;
    return false;
  };

  // Full enumeration recovers the sliver cell on both kernel paths.
  EXPECT_TRUE(has_gens(enumerate_order_k_cells_brute(sites, 2, window100())));
  {
    wsn::SpatialGrid grid(sites, 12.0);
    EXPECT_TRUE(has_gens(enumerate_order_k_cells(sites, grid, 2, window100())));
  }
  // Both dominating regions that own the cell traverse into it.
  EXPECT_TRUE(has_gens(dominating_region_cells(sites, 2, 2, window100())));
  EXPECT_TRUE(has_gens(dominating_region_cells(sites, 4, 2, window100())));
}

TEST(SliverEdges, DominatingRegionMatchesOracleNearDegeneracy) {
  // Membership check against the Proposition-1 oracle on the cocircular
  // configuration (sample points near ties are skipped, as everywhere).
  laacad::Rng rng(950);
  std::vector<Vec2> sites;
  const int m = 12;
  for (int i = 0; i < m; ++i) {
    const double ang = 2.0 * M_PI * i / m + rng.uniform(-1e-7, 1e-7);
    sites.push_back(
        Vec2{50.0 + 30.0 * std::cos(ang), 50.0 + 30.0 * std::sin(ang)});
  }
  sites = separate_sites(sites);
  const int n = static_cast<int>(sites.size());
  for (int k : {2, 3}) {
    const int i = 0;
    auto cells = dominating_region_cells(sites, i, k, window100());
    int checked = 0;
    for (int t = 0; t < 800; ++t) {
      const Vec2 v{rng.uniform(0, 100), rng.uniform(0, 100)};
      const double di = geom::dist(sites[0], v);
      bool near_tie = false;
      for (int j = 1; j < n; ++j) {
        if (std::abs(geom::dist(sites[static_cast<size_t>(j)], v) - di) < 1e-4)
          near_tie = true;
      }
      if (near_tie) continue;
      ++checked;
      EXPECT_EQ(in_region_brute(sites, i, k, v), in_cells(cells, v, 1e-6))
          << "k=" << k << " at " << v.x << "," << v.y;
    }
    EXPECT_GT(checked, 400);
  }
}

// --------------------------------------------------- kernel cost contract --

// The acceptance bar for the grid kernel: on the fig6-style 400-node
// configuration, the bounded candidate gather must cut site-distance
// evaluations by at least 2x against the exhaustive kernel. Deterministic
// (fixed seed, thread-local counters), so it gates exactly, at every k the
// micro benches report. Keep this configuration (seed 7, 400 sites on
// 1 km^2, interior node, grid cell 50) in lockstep with
// fig6_sites/interior_node in bench/bench_micro_kernels.cpp, whose
// OrderKRegion{Brute,Grid} dist2_evals counters measure the same regime.
std::vector<Vec2> fig6_sites() {
  laacad::Rng rng(7);
  std::vector<Vec2> sites;
  for (int i = 0; i < 400; ++i)
    sites.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  return separate_sites(sites);
}

// Interior-most node, as in the benches.
int fig6_center(const std::vector<Vec2>& sites) {
  int center = 0;
  double best = 1e18;
  for (int i = 0; i < 400; ++i) {
    const double d = geom::dist(sites[static_cast<size_t>(i)], {500, 500});
    if (d < best) {
      best = d;
      center = i;
    }
  }
  return center;
}

TEST(GridKernel, HalvesDistanceEvalsOnFig6Config) {
  const std::vector<Vec2> sites = fig6_sites();
  const Ring window = {{0, 0}, {1000, 0}, {1000, 1000}, {0, 1000}};
  const int center = fig6_center(sites);

  auto& pc = laacad::perf::counters();
  for (int k : {1, 2, 3}) {
    pc.reset();
    const auto brute = dominating_region_cells_brute(sites, center, k, window);
    const std::uint64_t brute_evals = pc.dist2_evals;

    wsn::SpatialGrid grid(sites, 50.0);
    pc.reset();
    const auto fast = dominating_region_cells(sites, grid, center, k, window);
    const std::uint64_t grid_evals = pc.dist2_evals;

    ASSERT_EQ(fast.size(), brute.size()) << "k=" << k;
    for (std::size_t c = 0; c < brute.size(); ++c)
      EXPECT_EQ(fast[c].poly, brute[c].poly);
    EXPECT_GE(brute_evals, 2 * grid_evals)
        << "k=" << k << " brute=" << brute_evals << " grid=" << grid_evals;
  }
}

// The filtered distance predicates must decide nearly every comparison
// without hypot: on a fixed 2 000-site uniform configuration the exact
// path runs at most once per 1 000 dist2 evaluations. Deterministic, so it
// gates exactly.
TEST(GridKernel, ExactFallbacksStayRareOnUniformSites) {
  laacad::Rng rng(2000);
  std::vector<Vec2> sites;
  for (int i = 0; i < 2000; ++i)
    sites.push_back({rng.uniform(0, 2000), rng.uniform(0, 2000)});
  sites = separate_sites(sites);
  const Ring window = {{0, 0}, {2000, 0}, {2000, 2000}, {0, 2000}};
  const wsn::SpatialGrid grid(sites, 50.0);
  auto& pc = laacad::perf::counters();
  pc.reset();
  std::size_t cells = 0;
  for (int i = 0; i < 2000; i += 4)
    cells += dominating_region_cells(sites, grid, i, 2, window).size();
  EXPECT_GT(cells, 500u);
  EXPECT_GT(pc.dist2_evals, 0u);
  EXPECT_LE(pc.exact_fallbacks * 1000, pc.dist2_evals)
      << "exact_fallbacks=" << pc.exact_fallbacks
      << " dist2_evals=" << pc.dist2_evals;
}

// The certificates spare most bisector scans: on the fig6 configuration
// the kernel scans at most 2.5 bisectors per clip at k = 2 and 3 (the
// clips themselves are necessary). Without them it scanned 8.0 and 10.3
// per clip; with them 1.7 and 2.1. The seed certificate leaves one k + 1
// nearest query where nine k-nearest queries ran before.
TEST(GridKernel, CertificatesSpareBisectorScansOnFig6Config) {
  const std::vector<Vec2> sites = fig6_sites();
  const Ring window = {{0, 0}, {1000, 0}, {1000, 1000}, {0, 1000}};
  const int center = fig6_center(sites);
  const wsn::SpatialGrid grid(sites, 50.0);
  auto& pc = laacad::perf::counters();
  for (int k : {2, 3}) {
    pc.reset();
    const auto cells = dominating_region_cells(sites, grid, center, k, window);
    EXPECT_GT(pc.clip_calls, 0u);
    EXPECT_LE(pc.bisector_scans * 2, pc.clip_calls * 5)
        << "k=" << k << " bisector_scans=" << pc.bisector_scans
        << " clip_calls=" << pc.clip_calls;
    // One seed query, one gather per cell (plus rare expansions).
    EXPECT_LE(pc.grid_queries, 1 + 2 * cells.size()) << "k=" << k;
  }
}

// ------------------------------------------------ pruning certificates ----

// The inputs the certificates are checked on: uniform random sites, an
// exact square lattice (ties everywhere), and co-located triples pulled
// apart by separate_sites (near-coincident bisectors).
std::vector<std::pair<std::string, std::vector<Vec2>>> certificate_inputs() {
  laacad::Rng rng(61);
  std::vector<Vec2> random, lattice, stacked;
  for (int i = 0; i < 60; ++i)
    random.push_back({rng.uniform(2, 98), rng.uniform(2, 98)});
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c)
      lattice.push_back({10.0 + 16 * c, 10.0 + 16 * r});
  for (int a = 0; a < 12; ++a) {
    const Vec2 at{rng.uniform(5, 95), rng.uniform(5, 95)};
    for (int g = 0; g < 3; ++g) stacked.push_back(at);
  }
  return {{"random", separate_sites(random)},
          {"lattice", lattice},
          {"stacked", separate_sites(stacked)}};
}

// Every pair (gens[g], j) that `bound` lets the kernel skip — by the stop
// certificate or the reject certificate — must leave `ring` strictly
// inside the bisector: bisector_side_exact answers kInside. `ring` is the
// ring the bound was fitted to or one clipped from it. Returns the number
// of skipped pairs.
int expect_skips_inside(const std::vector<Vec2>& sites,
                        const std::vector<int>& gens, const CellBound& bound,
                        const Ring& ring, const std::string& what) {
  const Vec2 ref = sites[static_cast<std::size_t>(gens.front())];
  int skips = 0;
  for (int j = 0; j < static_cast<int>(sites.size()); ++j) {
    if (std::binary_search(gens.begin(), gens.end(), j)) continue;
    const Vec2 uj = sites[static_cast<std::size_t>(j)];
    const double s2 = geom::dist2(uj, ref);
    const double c2 = geom::dist2(uj, bound.centre());
    const bool stop = bound.stops(s2);
    for (std::size_t g = 0; g < gens.size(); ++g) {
      if (!stop && !bound.rejects(g, s2, c2)) continue;
      ++skips;
      EXPECT_EQ(geom::bisector_side_exact(
                    sites[static_cast<std::size_t>(gens[g])], uj, ring),
                geom::RingSide::kInside)
          << what << " h=" << gens[g] << " j=" << j
          << (stop ? " (stop)" : " (reject)");
    }
  }
  return skips;
}

TEST(CellBound, EverySkippedBisectorLeavesTheCellInside) {
  const Ring window = window100();
  for (const auto& [name, sites] : certificate_inputs()) {
    for (int k = 1; k <= 3; ++k) {
      int skips = 0;
      for (const OrderKCell& cell :
           enumerate_order_k_cells_brute(sites, k, window)) {
        const std::string what = name + " k=" + std::to_string(k) + " cell " +
                                 ::testing::PrintToString(cell.gens);
        CellBound on_cell, on_window;
        on_cell.fit(sites, cell.gens, cell.poly);
        on_window.fit(sites, cell.gens, window);
        skips +=
            expect_skips_inside(sites, cell.gens, on_cell, cell.poly, what);
        skips += expect_skips_inside(sites, cell.gens, on_window, window,
                                     what + " window bound");
        // A bound fitted to an earlier, larger ring stays valid.
        skips += expect_skips_inside(sites, cell.gens, on_window, cell.poly,
                                     what + " stale window bound");
      }
      EXPECT_GT(skips, 0) << name << " k=" << k;
    }
  }
}

TEST(CellBound, NearMissesAtTheThresholdAreNotSkipped) {
  // u_j = u_h + 2 (1 + t) (v - u_h) for the vertex v farthest from u_h:
  // at t = 0 the bisector runs through v (kTouch), and v sinks inside it
  // only by about t |v - u_h|. Sweep t from 1e-16 to 1e-2 over generators
  // inside and outside a unit-scale and a km-scale square: wherever a
  // certificate skips, the exact classifier must say kInside, and the
  // certificates must start skipping once t clears their slack.
  for (const double side : {1.0, 1000.0}) {
    const Ring square = {{0, 0}, {side, 0}, {side, side}, {0, side}};
    for (const Vec2 h : {Vec2{0.3, 0.6} * side, Vec2{-0.5, 0.2} * side,
                         Vec2{0.5, 0.5} * side}) {
      Vec2 far = square.front();
      for (const Vec2 v : square)
        if (geom::dist2(v, h) > geom::dist2(far, h)) far = v;
      int skipped = 0;
      for (double t = 1e-16; t < 2e-2; t *= 3.0) {
        const std::vector<Vec2> sites = {h, h + (far - h) * (2.0 * (1.0 + t))};
        CellBound bound;
        bound.fit(sites, {0}, square);
        skipped += expect_skips_inside(
            sites, {0}, bound, square,
            "side=" + std::to_string(side) + " t=" + std::to_string(t));
      }
      EXPECT_GT(skipped, 0) << "side=" << side;
    }
  }
}

// Some k fires on every input: the lattice's equidistant neighbours and
// the stacked triples' 1e-7 m spacing leave no gap at other k.
TEST(SeedCertificate, FiresOnlyWhenEveryProbeRepeatsTheFirstSeed) {
  for (const auto& [name, sites] : certificate_inputs()) {
    int fired = 0;
    for (int k = 1; k <= 3; ++k) {
      for (int i = 0; i < static_cast<int>(sites.size()); ++i) {
        const Vec2 ui = sites[static_cast<std::size_t>(i)];
        const auto nearest = k_nearest_brute(sites, ui, k + 1);
        if (!seed_probes_redundant(sites, i, k, nearest)) continue;
        ++fired;
        std::vector<int> first(nearest.begin(), nearest.begin() + k);
        std::sort(first.begin(), first.end());
        for (int dir = 0; dir < 8; ++dir) {
          const double ang = dir * M_PI / 4.0;
          const Vec2 p =
              ui + Vec2{std::cos(ang), std::sin(ang)} * kSeedProbeOffset;
          auto probe = k_nearest_brute(sites, p, k);
          std::sort(probe.begin(), probe.end());
          EXPECT_EQ(probe, first) << name << " k=" << k << " i=" << i
                                  << " dir=" << dir;
        }
      }
    }
    EXPECT_GT(fired, 0) << name;
  }
}

TEST(SeedCertificate, RefusesAGapAProbeCanClose) {
  // k = 2 around site 0: site 1 sits 1 mm west, site 2 1 mm plus `gap`
  // east. The east probe is kSeedProbeOffset nearer site 2 and farther
  // from site 1, so it swaps them exactly when gap < 2 kSeedProbeOffset.
  for (const double gap : {1.9e-5, 2.1e-5}) {
    const std::vector<Vec2> sites = {{0, 0}, {-1e-3, 0}, {1e-3 + gap, 0}};
    auto probe = k_nearest_brute(sites, {kSeedProbeOffset, 0}, 2);
    std::sort(probe.begin(), probe.end());
    const bool same = probe == std::vector<int>{0, 1};
    EXPECT_EQ(same, gap > 2 * kSeedProbeOffset) << "gap=" << gap;
    EXPECT_EQ(seed_probes_redundant(sites, 0, 2,
                                    k_nearest_brute(sites, sites[0], 3)),
              same)
        << "gap=" << gap;
  }
  // Site 0 outside its own k nearest (a co-located lower index wins the
  // tie): the probes force it in, so they are never redundant.
  const std::vector<Vec2> tie = {{5, 5}, {5, 5}, {9, 9}};
  EXPECT_FALSE(
      seed_probes_redundant(tie, 1, 1, k_nearest_brute(tie, tie[1], 2)));
  // No site beyond the k nearest: every probe returns all of them.
  EXPECT_TRUE(
      seed_probes_redundant(tie, 0, 3, k_nearest_brute(tie, tie[0], 4)));
}

// -------------------------------------------- full-diagram enumeration ----

TEST(EnumerateCells, PartitionOfWindow) {
  laacad::Rng rng(41);
  std::vector<Vec2> sites;
  for (int i = 0; i < 15; ++i)
    sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
  for (int k = 1; k <= 4; ++k) {
    auto cells = enumerate_order_k_cells(sites, k, window100());
    double total = 0.0;
    std::set<std::vector<int>> unique_gens;
    for (const auto& c : cells) {
      total += c.area();
      EXPECT_TRUE(unique_gens.insert(c.gens).second) << "duplicate cell";
    }
    EXPECT_NEAR(total, 10000.0, 1.0) << "k=" << k;
  }
}

TEST(EnumerateCells, CountMatchesTheoryBound) {
  // Number of order-k cells is O(k(N-k)) (Lee 1982); for small point sets
  // the count must sit between N choose-free lower bounds and that bound.
  laacad::Rng rng(42);
  std::vector<Vec2> sites;
  const int n = 12;
  for (int i = 0; i < n; ++i)
    sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
  for (int k = 1; k <= 4; ++k) {
    auto cells = enumerate_order_k_cells(sites, k, window100());
    EXPECT_GE(static_cast<int>(cells.size()), n - k);
    EXPECT_LE(static_cast<int>(cells.size()), 6 * k * (n - k) + 8);
  }
}

TEST(EnumerateCells, Order1CellCountEqualsSites) {
  laacad::Rng rng(43);
  std::vector<Vec2> sites;
  for (int i = 0; i < 10; ++i)
    sites.push_back({rng.uniform(10, 90), rng.uniform(10, 90)});
  auto cells = enumerate_order_k_cells(sites, 1, window100());
  EXPECT_EQ(cells.size(), 10u);
}

TEST(EnumerateCells, DominatingRegionIsUnionOfEnumerated) {
  laacad::Rng rng(44);
  std::vector<Vec2> sites;
  for (int i = 0; i < 14; ++i)
    sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
  const int i = 4, k = 3;
  auto all = enumerate_order_k_cells(sites, k, window100());
  double expect = 0.0;
  for (const auto& c : all)
    if (std::binary_search(c.gens.begin(), c.gens.end(), i)) expect += c.area();
  auto mine = dominating_region_cells(sites, i, k, window100());
  double got = 0.0;
  for (const auto& c : mine) got += c.area();
  EXPECT_NEAR(got, expect, 1e-3);
}

// ------------------------------------------ exhaustive adjacency oracle ---

// Every nonempty order-k cell, built subset by subset with no adjacency at
// all: order_k_cell against every out-site sorted by (dist2 to the first
// generator, index), the kernel's own clip order, so the rings compare bit
// for bit. Kept under the BFS's own rule (area not below 1e-18). This is
// the one check of neighbour discovery that does not run through the BFS.
using CellMap = std::map<std::vector<int>, Ring>;

CellMap exhaustive_cells(const std::vector<Vec2>& sites, int k,
                         const Ring& window) {
  const int n = static_cast<int>(sites.size());
  CellMap out;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    if (std::popcount(mask) != k) continue;
    std::vector<int> gens;
    for (int s = 0; s < n; ++s)
      if ((mask >> s) & 1u) gens.push_back(s);
    const Vec2 ref = sites[static_cast<std::size_t>(gens.front())];
    std::vector<std::pair<double, int>> order;
    for (int j = 0; j < n; ++j)
      if (!((mask >> j) & 1u))
        order.emplace_back(geom::dist2(sites[static_cast<std::size_t>(j)], ref),
                           j);
    std::sort(order.begin(), order.end());
    std::vector<int> others;
    for (const auto& o : order) others.push_back(o.second);
    Ring cell = order_k_cell(sites, gens, others, window);
    if (!cell.empty() && !(geom::area(cell) < 1e-18))
      out.emplace(std::move(gens), std::move(cell));
  }
  return out;
}

void expect_same_cells(const std::vector<OrderKCell>& got,
                       const CellMap& expected, const std::string& what) {
  CellMap found;
  for (const auto& c : got)
    EXPECT_TRUE(found.emplace(c.gens, c.poly).second)
        << what << ": cell reported twice";
  for (const auto& [gens, ring] : expected) {
    const auto it = found.find(gens);
    if (it == found.end()) {
      ADD_FAILURE() << what << ": missing cell "
                    << ::testing::PrintToString(gens);
      continue;
    }
    EXPECT_EQ(it->second, ring) << what << ": cell "
                                << ::testing::PrintToString(gens);
  }
  for (const auto& c : found)
    EXPECT_TRUE(expected.count(c.first))
        << what << ": spurious cell " << ::testing::PrintToString(c.first);
}

// Both entry points on both kernel paths against the oracle, k = 1..3.
void check_against_exhaustive(const std::vector<Vec2>& sites,
                              const std::string& name) {
  const Ring window = window100();
  const wsn::SpatialGrid grid(sites, 20.0);
  const int n = static_cast<int>(sites.size());
  for (int k = 1; k <= 3 && k <= n; ++k) {
    const CellMap all = exhaustive_cells(sites, k, window);
    ASSERT_FALSE(all.empty());
    const std::string tag = name + " k=" + std::to_string(k);
    expect_same_cells(enumerate_order_k_cells_brute(sites, k, window), all,
                      tag + " enumerate brute");
    expect_same_cells(enumerate_order_k_cells(sites, grid, k, window), all,
                      tag + " enumerate grid");
    for (int i = 0; i < n; ++i) {
      CellMap mine;
      for (const auto& [gens, ring] : all)
        if (std::binary_search(gens.begin(), gens.end(), i))
          mine.emplace(gens, ring);
      const std::string who = tag + " i=" + std::to_string(i);
      expect_same_cells(dominating_region_cells_brute(sites, i, k, window),
                        mine, who + " region brute");
      expect_same_cells(dominating_region_cells(sites, grid, i, k, window),
                        mine, who + " region grid");
    }
  }
}

TEST(ExhaustiveOracle, ExactSquareLattice) {
  // No jitter: four sites on every order-k vertex, and bisectors of
  // opposite lattice sides that coincide exactly while a cell is clipped.
  std::vector<Vec2> sites;
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) sites.push_back({25.0 + 25 * c, 25.0 + 25 * r});
  check_against_exhaustive(sites, "lattice3x3");
  sites.resize(8);
  check_against_exhaustive(sites, "lattice3x3-1");
  std::vector<Vec2> square = {{30, 30}, {70, 30}, {70, 70}, {30, 70}};
  check_against_exhaustive(square, "square");
}

TEST(ExhaustiveOracle, StackedGroups) {
  // Co-located groups (three anchors of three, or four of two) pulled apart
  // by separate_sites. Their bisectors nearly coincide: some cells border a
  // neighbour only along a stretch where two bisectors stay within kEps of
  // each other, so they are reachable only across a bisector that touches
  // the neighbour without cutting it (seed 0 has such cells).
  for (int seed = 0; seed < 100; ++seed) {
    laacad::Rng rng(static_cast<std::uint64_t>(seed));
    const int anchors = seed % 2 ? 4 : 3;
    const int group = seed % 2 ? 2 : 3;
    std::vector<Vec2> sites;
    for (int a = 0; a < anchors; ++a) {
      const Vec2 at{rng.uniform(5, 95), rng.uniform(5, 95)};
      for (int g = 0; g < group; ++g) sites.push_back(at);
    }
    check_against_exhaustive(separate_sites(sites),
                             "stacked seed " + std::to_string(seed));
  }
}

TEST(ExhaustiveOracle, NearCocircular) {
  // The SliverEdges construction at n = 9: eight sites on a circle up to
  // ~1e-7 jitter plus one near its center.
  for (int seed = 0; seed < 4; ++seed) {
    laacad::Rng rng(900 + seed);
    std::vector<Vec2> sites;
    const int m = 8;
    for (int i = 0; i < m; ++i) {
      const double ang = 2.0 * M_PI * i / m + rng.uniform(-1e-7, 1e-7);
      sites.push_back(Vec2{50.0 + 30.0 * std::cos(ang),
                           50.0 + 30.0 * std::sin(ang)});
    }
    sites.push_back({50.0 + rng.uniform(-1e-7, 1e-7), 50.0});
    check_against_exhaustive(separate_sites(sites),
                             "cocircular" + std::to_string(seed));
  }
}

TEST(ExhaustiveOracle, RandomSets) {
  laacad::Rng rng(31);
  for (int round = 0; round < 12; ++round) {
    const int n = 4 + rng.uniform_int(0, 5);
    std::vector<Vec2> sites;
    for (int i = 0; i < n; ++i)
      sites.push_back({rng.uniform(5, 95), rng.uniform(5, 95)});
    check_against_exhaustive(separate_sites(sites),
                             "random" + std::to_string(round));
  }
}

}  // namespace
}  // namespace laacad::vor
