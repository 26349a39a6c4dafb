#include "viz/render.hpp"

#include "voronoi/sites.hpp"
#include "viz/svg.hpp"

namespace laacad::viz {

using geom::Ring;
using geom::Vec2;

namespace {

const char* kPalette[] = {"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                          "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
                          "#bcbd22", "#17becf"};

void draw_domain(SvgCanvas& canvas, const wsn::Domain& domain) {
  Style outline;
  outline.stroke = "#000000";
  outline.stroke_width = 1.5;
  canvas.polygon(domain.outer(), outline);
  Style hole;
  hole.fill = "#dddddd";
  hole.stroke = "#888888";
  for (const Ring& h : domain.holes()) canvas.polygon(h, hole);
}

}  // namespace

bool render_deployment(const std::string& path, const wsn::Network& net) {
  SvgCanvas canvas(net.domain().bbox().inflated(10.0));
  draw_domain(canvas, net.domain());
  Style disk;
  disk.fill = "#9ecae1";
  disk.stroke = "#6baed6";
  disk.stroke_width = 0.5;
  disk.opacity = 0.3;
  for (wsn::NodeId i = 0; i < net.size(); ++i) {
    const double r = net.sensing_range(i);
    if (r > 0.0) canvas.circle(net.position(i), r, disk);
  }
  for (const Vec2 p : net.positions()) canvas.dot(p, 2.5, "#d62728");
  return canvas.save(path);
}

bool render_order_k_partition(const std::string& path,
                              const wsn::Network& net, int k) {
  SvgCanvas canvas(net.domain().bbox().inflated(10.0));
  const auto sites = vor::separate_sites(net.positions());
  const auto cells = vor::enumerate_order_k_cells(
      sites, k, geom::box_ring(net.domain().bbox()));
  std::size_t idx = 0;
  for (const vor::OrderKCell& cell : cells) {
    Style cs;
    cs.fill = kPalette[idx++ % 10];
    cs.opacity = 0.25;
    cs.stroke = "#444444";
    cs.stroke_width = 0.8;
    canvas.polygon(cell.poly, cs);
  }
  draw_domain(canvas, net.domain());
  for (const Vec2 p : net.positions()) canvas.dot(p, 2.5, "#000000");
  return canvas.save(path);
}

bool render_dominating_region(const std::string& path,
                              const wsn::Network& net, wsn::NodeId i, int k) {
  SvgCanvas canvas(net.domain().bbox().inflated(10.0));
  draw_domain(canvas, net.domain());
  const auto sites = vor::separate_sites(net.positions());
  const auto cells = vor::dominating_region_cells(
      sites, i, k, geom::box_ring(net.domain().bbox()));
  Style region;
  region.fill = "#2ca02c";
  region.opacity = 0.35;
  region.stroke = "#2ca02c";
  for (const vor::OrderKCell& cell : cells) canvas.polygon(cell.poly, region);
  for (wsn::NodeId j = 0; j < net.size(); ++j) {
    canvas.dot(net.position(j), 2.0, j == i ? "#d62728" : "#555555");
  }
  return canvas.save(path);
}

}  // namespace laacad::viz
