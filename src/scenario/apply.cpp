#include "scenario/apply.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "common/json_writer.hpp"
#include "obs/trace.hpp"
#include "wsn/deployment.hpp"
#include "wsn/energy.hpp"

namespace laacad::scenario {

namespace {

double auto_gamma(const ScenarioSpec& spec, const wsn::Domain& domain) {
  if (spec.gamma > 0.0) return spec.gamma;
  return wsn::auto_comm_range(domain, spec.nodes, spec.side);
}

geom::Vec2 bbox_point(const wsn::Domain& domain, geom::Vec2 fraction) {
  const geom::BBox bb = domain.bbox();
  return {bb.lo.x + fraction.x * bb.width(),
          bb.lo.y + fraction.y * bb.height()};
}

/// Decompose the *new* blocked area of an axis-aligned rectangle —
/// rect ∩ outer ring, minus every existing hole — into disjoint
/// axis-aligned cells. This is what lets obstacles and jams overlap freely:
/// instead of unioning hole polygons (a general boolean op), only the area
/// not already blocked becomes new holes, so the hole list stays pairwise
/// disjoint (the Domain invariant that keeps area bookkeeping and cell
/// clipping exact) while the *blocked region* is the union.
///
/// The grid is cut at every outer/hole vertex coordinate inside the rect.
/// Every domain the scenario format can build is axis-aligned rectilinear
/// (square/lshape/cross outlines, rectangular obstacles and jams, uniform
/// resize scaling), so each cell lies entirely inside or outside each ring
/// and the midpoint test classifies it exactly.
std::vector<geom::Ring> new_blocked_cells(const wsn::Domain& domain,
                                          geom::Vec2 lo, geom::Vec2 hi) {
  std::vector<double> xs = {lo.x, hi.x}, ys = {lo.y, hi.y};
  auto collect = [&](const geom::Ring& ring) {
    for (const geom::Vec2& v : ring) {
      if (v.x > lo.x && v.x < hi.x) xs.push_back(v.x);
      if (v.y > lo.y && v.y < hi.y) ys.push_back(v.y);
    }
  };
  collect(domain.outer());
  for (const geom::Ring& h : domain.holes()) collect(h);
  auto dedupe = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    // Merge near-identical cuts: a sliver thinner than 1e-9 m carries no
    // area and would only produce degenerate cells.
    v.erase(std::unique(v.begin(), v.end(),
                        [](double a, double b) { return b - a < 1e-9; }),
            v.end());
  };
  dedupe(xs);
  dedupe(ys);

  std::vector<geom::Ring> cells;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    // Cells in one x-strip merge vertically when contiguous, so a jam over
    // clear ground stays one rectangle per strip instead of a grid.
    std::size_t open = cells.size();  // first cell index of this strip
    for (std::size_t j = 0; j + 1 < ys.size(); ++j) {
      const geom::Vec2 c{(xs[i] + xs[i + 1]) / 2, (ys[j] + ys[j + 1]) / 2};
      bool blocked = !geom::contains_point(domain.outer(), c, 0.0);
      for (const geom::Ring& h : domain.holes()) {
        if (blocked) break;
        blocked = geom::contains_point(h, c, 0.0);
      }
      if (blocked) {
        open = cells.size() + 1;  // break vertical contiguity
        continue;
      }
      if (open < cells.size()) {
        cells.back()[2].y = ys[j + 1];  // extend the open cell upward
        cells.back()[3].y = ys[j + 1];
      } else {
        cells.push_back(geom::box_ring(
            {{xs[i], ys[j]}, {xs[i + 1], ys[j + 1]}}));
        open = cells.size() - 1;
      }
    }
  }
  return cells;
}

/// Apply `cells` as new holes; nullptr when nothing remains to cover.
std::unique_ptr<wsn::Domain> with_blocked_cells(
    const wsn::Domain& domain, const std::vector<geom::Ring>& cells) {
  std::vector<geom::Ring> holes = domain.holes();
  holes.insert(holes.end(), cells.begin(), cells.end());
  auto out = std::make_unique<wsn::Domain>(domain.outer(), std::move(holes));
  if (out->area() <= 1e-6) return nullptr;
  return out;
}

/// True when the rect touches the domain's outer ring at all (used to
/// distinguish "outside the domain" from "already fully blocked").
bool rect_touches_domain(const wsn::Domain& domain, geom::Vec2 lo,
                         geom::Vec2 hi) {
  const geom::Ring clipped = geom::dedupe_ring(
      geom::sutherland_hodgman(domain.outer(), geom::box_ring({lo, hi})));
  return geom::area(clipped) > 1e-6;
}

void remove_nodes_desc(World& w, std::vector<int> ids) {
  std::sort(ids.begin(), ids.end(), std::greater<int>());
  for (int id : ids) {
    w.net->remove_node(id);
    w.battery.erase(w.battery.begin() + id);
  }
}

}  // namespace

World build_world(ScenarioSpec spec) {
  World w;
  w.spec = std::move(spec);
  w.rng = Rng(w.spec.seed);
  validate(w.spec);
  wsn::Domain base =
      wsn::make_named_domain(w.spec.domain, w.spec.side, w.spec.hole);
  // Declared obstacles are punched up front, with the same union-by-
  // decomposition the jam_region event uses, so they may overlap each
  // other (or the canned `hole`) freely.
  for (const ObstacleRect& rect : w.spec.obstacles) {
    const geom::Vec2 lo = bbox_point(base, rect.lo);
    const geom::Vec2 hi = bbox_point(base, rect.hi);
    if (!rect_touches_domain(base, lo, hi))
      throw std::runtime_error(
          "obstacle (spec line " + std::to_string(rect.line) +
          "): rectangle lies outside the domain");
    const auto cells = new_blocked_cells(base, lo, hi);
    if (cells.empty()) continue;  // fully inside earlier obstacles
    auto blocked = with_blocked_cells(base, cells);
    if (!blocked)
      throw std::runtime_error(
          "obstacle (spec line " + std::to_string(rect.line) +
          "): no coverage area remains");
    base = std::move(*blocked);
  }
  w.domains.push_back(std::make_unique<wsn::Domain>(std::move(base)));
  const wsn::Domain& domain = *w.domains.back();

  std::vector<geom::Vec2> initial;
  if (w.spec.deploy == "stacked") {
    // Groups of k co-located nodes on uniform anchors — the paper's "even
    // clustering" equilibrium as a start. Count rounds down to a multiple
    // of k, matching the Fig. 5 construction; validate() guarantees
    // nodes >= k, so there is always at least one group.
    const int groups = w.spec.nodes / w.spec.k;
    const auto anchors = wsn::deploy_uniform(domain, groups, w.rng);
    initial = wsn::stacked(anchors, w.spec.k, w.rng, 1e-3);
  } else {
    initial = wsn::deploy_named(domain, w.spec.deploy, w.spec.nodes,
                                w.spec.side, w.rng);
  }
  w.initial_positions = initial;
  w.net = std::make_unique<wsn::Network>(&domain, std::move(initial),
                                         auto_gamma(w.spec, domain));
  w.battery.assign(static_cast<std::size_t>(w.net->size()), w.spec.battery);

  core::LaacadConfig cfg;
  cfg.k = w.spec.k;
  cfg.alpha = w.spec.alpha;
  cfg.epsilon = w.spec.epsilon;
  cfg.max_rounds = w.spec.max_rounds;
  cfg.seed = w.spec.seed;
  cfg.num_threads = w.spec.num_threads;
  cfg.localized.max_hops = w.spec.max_hops;
  cfg.localized.range_noise = w.spec.noise;
  cfg.localized.ideal_gather = (w.spec.flooding == "ideal");
  if (w.spec.backend == "localized")
    cfg.provider = core::make_localized_provider(cfg.localized, cfg.seed);
  else if (w.spec.backend == "global")
    cfg.provider = core::make_global_provider();
  // backend "auto": provider stays null and the engine selects by network
  // size (global below provider_auto_threshold, localized above).
  w.engine = std::make_unique<core::Engine>(*w.net, cfg);
  return w;
}

EventRecord apply_event(World& w, const Event& ev, int index,
                        int global_round) {
  obs::ScopedSpan event_span("event", index);
  EventRecord rec;
  rec.index = index;
  rec.type = to_string(ev.type);
  rec.global_round = global_round;
  rec.nodes_before = w.net->size();
  const int n = w.net->size();

  switch (ev.type) {
    case EventType::kFailNodes: {
      std::vector<int> doomed;
      if (ev.pick == "region") {
        const geom::Vec2 lo = bbox_point(w.domain(), ev.lo);
        const geom::Vec2 hi = bbox_point(w.domain(), ev.hi);
        for (int i = 0; i < n; ++i) {
          const geom::Vec2 p = w.net->position(i);
          if (p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y)
            doomed.push_back(i);
        }
        if (ev.count > 0 && static_cast<int>(doomed.size()) > ev.count)
          doomed.resize(static_cast<std::size_t>(ev.count));
      } else if (ev.pick == "max_range") {
        std::vector<int> ids(static_cast<std::size_t>(n));
        std::iota(ids.begin(), ids.end(), 0);
        std::sort(ids.begin(), ids.end(), [&](int a, int b) {
          const double ra = w.net->sensing_range(a);
          const double rb = w.net->sensing_range(b);
          return ra != rb ? ra > rb : a < b;
        });
        ids.resize(static_cast<std::size_t>(std::min(ev.count, n)));
        doomed = std::move(ids);
      } else {  // random: Fisher–Yates prefix over node ids
        std::vector<int> ids(static_cast<std::size_t>(n));
        std::iota(ids.begin(), ids.end(), 0);
        const int want = std::min(ev.count, n);
        for (int i = 0; i < want; ++i) {
          const int j = w.rng.uniform_int(i, n - 1);
          std::swap(ids[static_cast<std::size_t>(i)],
                    ids[static_cast<std::size_t>(j)]);
        }
        ids.resize(static_cast<std::size_t>(want));
        doomed = std::move(ids);
      }
      const int killed = static_cast<int>(doomed.size());
      remove_nodes_desc(w, std::move(doomed));
      rec.detail = "removed " + std::to_string(killed) + " nodes (" +
                   ev.pick + ")";
      break;
    }
    case EventType::kDrainBattery: {
      std::vector<int> depleted;
      for (int i = 0; i < n; ++i) {
        const double drain =
            ev.epochs * wsn::sensing_energy(w.net->sensing_range(i)) +
            ev.fraction * w.spec.battery;
        w.battery[static_cast<std::size_t>(i)] -= drain;
        if (w.battery[static_cast<std::size_t>(i)] <= 0.0)
          depleted.push_back(i);
      }
      const int killed = static_cast<int>(depleted.size());
      remove_nodes_desc(w, std::move(depleted));
      rec.detail = "drained batteries; " + std::to_string(killed) +
                   " nodes depleted";
      break;
    }
    case EventType::kAddNodes: {
      std::vector<geom::Vec2> fresh;
      if (ev.deploy == "uniform")
        fresh = wsn::deploy_uniform(w.domain(), ev.count, w.rng);
      else if (ev.deploy == "corner")
        fresh = wsn::deploy_corner(w.domain(), ev.count, w.rng);
      else
        fresh = wsn::deploy_gaussian(
            w.domain(), ev.count, bbox_point(w.domain(), ev.at),
            ev.sigma * w.domain().bbox().width(), w.rng);
      for (const geom::Vec2& p : fresh) {
        w.net->add_node(p);
        w.battery.push_back(w.spec.battery);
      }
      rec.detail = "added " + std::to_string(ev.count) + " nodes (" +
                   ev.deploy + ")";
      break;
    }
    case EventType::kResizeBoundary: {
      const geom::Vec2 anchor = w.domain().bbox().lo;
      geom::Ring outer = w.domain().outer();
      for (geom::Vec2& v : outer) v = anchor + (v - anchor) * ev.scale;
      std::vector<geom::Ring> holes = w.domain().holes();
      for (geom::Ring& hole : holes)
        for (geom::Vec2& v : hole) v = anchor + (v - anchor) * ev.scale;
      w.domains.push_back(
          std::make_unique<wsn::Domain>(std::move(outer), std::move(holes)));
      w.net->rebind_domain(w.domains.back().get());
      rec.detail = "boundary scaled by " +
                   JsonWriter::number_to_string(ev.scale);
      break;
    }
    case EventType::kJamRegion: {
      const geom::Vec2 lo = bbox_point(w.domain(), ev.lo);
      const geom::Vec2 hi = bbox_point(w.domain(), ev.hi);
      // The spec rect is in bbox fractions, so on a non-rectangular domain
      // it can spill outside the outer ring, and jams may overlap earlier
      // jams or declared obstacles: the blocked region becomes the *union*.
      // Only the newly blocked area (decomposed into disjoint cells) is
      // added as holes, which keeps Domain's pairwise-disjointness invariant
      // and exact area bookkeeping. A jam entirely outside the domain is
      // still a scenario-author error — reject it loudly.
      if (!rect_touches_domain(w.domain(), lo, hi))
        throw std::runtime_error(
            "jam_region (spec line " + std::to_string(ev.line) +
            "): rectangle lies outside the domain");
      const auto cells = new_blocked_cells(w.domain(), lo, hi);
      if (cells.empty()) {
        // Union semantics: re-jamming blocked ground changes nothing.
        rec.detail = "rectangle already jammed; no new area";
        break;
      }
      auto jammed = with_blocked_cells(w.domain(), cells);
      // Something must remain to cover: a jam swallowing (essentially) the
      // whole domain would leave every node infeasible.
      if (!jammed)
        throw std::runtime_error(
            "jam_region (spec line " + std::to_string(ev.line) +
            "): no coverage area remains after the jam");
      w.domains.push_back(std::move(jammed));
      w.net->rebind_domain(w.domains.back().get());
      rec.detail = "jammed rectangle (" + JsonWriter::number_to_string(lo.x) +
                   ", " + JsonWriter::number_to_string(lo.y) + ")-(" +
                   JsonWriter::number_to_string(hi.x) + ", " +
                   JsonWriter::number_to_string(hi.y) + ")";
      break;
    }
  }

  rec.nodes_after = w.net->size();
  return rec;
}

}  // namespace laacad::scenario
