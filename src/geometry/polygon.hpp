// Simple polygons (vertex rings) and Sutherland–Hodgman clipping.
//
// A `Ring` is an ordered vertex list; most routines work for both convex and
// non-convex simple rings. Convention: counter-clockwise orientation encloses
// positive area.
#pragma once

#include <optional>
#include <vector>

#include "geometry/halfplane.hpp"
#include "geometry/segment.hpp"
#include "geometry/vec2.hpp"

namespace laacad::geom {

using Ring = std::vector<Vec2>;

/// Axis-aligned bounding box.
struct BBox {
  Vec2 lo{0, 0};
  Vec2 hi{0, 0};

  double width() const { return hi.x - lo.x; }
  double height() const { return hi.y - lo.y; }
  Vec2 center() const { return midpoint(lo, hi); }
  bool contains(Vec2 p, double eps = kEps) const {
    return p.x >= lo.x - eps && p.x <= hi.x + eps && p.y >= lo.y - eps &&
           p.y <= hi.y + eps;
  }
  /// Grow equally on all sides.
  BBox inflated(double margin) const {
    return {{lo.x - margin, lo.y - margin}, {hi.x + margin, hi.y + margin}};
  }
};

/// Signed area (positive for counter-clockwise rings).
double signed_area(const Ring& ring);

/// |signed_area|.
double area(const Ring& ring);

double perimeter(const Ring& ring);

/// Area centroid. Falls back to the vertex mean for (near-)degenerate rings.
Vec2 centroid(const Ring& ring);

/// Reverses orientation in place if the ring is clockwise.
void make_ccw(Ring& ring);

BBox bounding_box(const Ring& ring);

/// Even–odd (crossing number) point-in-polygon test. Points within eps of the
/// boundary count as inside.
bool contains_point(const Ring& ring, Vec2 p, double eps = kEps);

/// Distance from p to the ring's boundary (0 if p lies on it).
double dist_to_boundary(const Ring& ring, Vec2 p);

/// Nearest point on the ring's boundary to p.
Vec2 project_to_boundary(const Ring& ring, Vec2 p);

/// Index of the vertex farthest from p, with its distance. Empty ring yields
/// nullopt.
std::optional<std::pair<std::size_t, double>> farthest_vertex(const Ring& ring,
                                                              Vec2 p);

/// One Sutherland–Hodgman clipping step: the part of `ring` inside `hp`.
/// Exact for a convex subject; for a non-convex subject the result is the
/// standard SH output (correct boundary vertices, possibly with degenerate
/// bridging edges), which is sufficient for the area / extreme-point /
/// enclosing-circle uses in this project.
Ring clip_ring(const Ring& ring, const HalfPlane& hp, double eps = kEps);

/// Per-edge labels carried through clip_ring_into. `in[e]` tags the subject
/// edge ring[e] -> ring[e+1]; `out` receives one tag per edge of the result
/// (same convention). A cut edge keeps its tag, the new edge along the clip
/// line gets `clip`, and when the dedupe drops a vertex the survivor takes
/// the dropped vertex's outgoing tag.
struct EdgeLabels {
  const std::vector<int>& in;
  std::vector<int>& out;
  int clip;
};

/// Allocation-free variant of clip_ring for hot loops: writes the clipped,
/// deduped result into `out` (cleared first; capacity is reused, so a caller
/// ping-ponging two scratch rings performs no heap traffic once warm).
/// `out` must not alias `ring`. Result is element-identical to clip_ring(),
/// with or without `labels`.
void clip_ring_into(const Ring& ring, const HalfPlane& hp, Ring& out,
                    double eps = kEps, EdgeLabels* labels = nullptr);

/// Clip an arbitrary subject ring against a convex window ring (CCW):
/// successive `clip_ring` against each window edge.
Ring sutherland_hodgman(const Ring& subject, const Ring& convex_window,
                        double eps = kEps);

/// Remove consecutive duplicate vertices (within eps); drops the ring to
/// empty if fewer than 3 distinct vertices remain.
Ring dedupe_ring(const Ring& ring, double eps = kEps);

/// Regular n-gon circumscribed about the circle (center, radius) — i.e. the
/// polygon CONTAINS the disk — used to approximate disks as convex clip
/// windows without undercutting them.
Ring circumscribed_ngon(Vec2 center, double radius, int n);

/// Regular n-gon inscribed in the circle (vertices on the circle).
Ring inscribed_ngon(Vec2 center, double radius, int n);

/// Axis-aligned rectangle ring (CCW).
Ring box_ring(const BBox& box);

}  // namespace laacad::geom
