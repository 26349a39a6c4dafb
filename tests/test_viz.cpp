#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "viz/render.hpp"
#include "viz/svg.hpp"
#include "wsn/deployment.hpp"

namespace laacad::viz {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Svg, DocumentStructure) {
  SvgCanvas canvas({{0, 0}, {100, 50}}, 400.0);
  canvas.dot({50, 25}, 3.0, "#ff0000");
  canvas.circle({50, 25}, 10.0, Style{});
  canvas.line({0, 0}, {100, 50}, Style{});
  canvas.polygon({{10, 10}, {20, 10}, {15, 20}}, Style{});
  canvas.text({5, 5}, "hello");
  const std::string s = canvas.to_string();
  EXPECT_NE(s.find("<svg"), std::string::npos);
  EXPECT_NE(s.find("</svg>"), std::string::npos);
  EXPECT_NE(s.find("<circle"), std::string::npos);
  EXPECT_NE(s.find("<polygon"), std::string::npos);
  EXPECT_NE(s.find("<line"), std::string::npos);
  EXPECT_NE(s.find("hello"), std::string::npos);
  // Aspect preserved: height = 400 * 50/100 = 200.
  EXPECT_NE(s.find("height=\"200"), std::string::npos);
}

TEST(Svg, YAxisFlipped) {
  SvgCanvas canvas({{0, 0}, {100, 100}}, 100.0);
  canvas.dot({0, 0}, 1.0, "#000000");
  const std::string s = canvas.to_string();
  // World origin (bottom-left) maps to pixel (0, 100).
  EXPECT_NE(s.find("cx=\"0.00\" cy=\"100.00\""), std::string::npos);
}

TEST(Svg, SaveWritesFile) {
  const std::string path = "/tmp/laacad_viz_test.svg";
  SvgCanvas canvas({{0, 0}, {10, 10}});
  canvas.dot({5, 5}, 2.0, "#123456");
  ASSERT_TRUE(canvas.save(path));
  const std::string s = slurp(path);
  EXPECT_NE(s.find("#123456"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Render, DeploymentAndPartitionSmoke) {
  wsn::Domain d = wsn::Domain::rectangle(100, 100).with_rect_hole({40, 40},
                                                                  {60, 60});
  Rng rng(99);
  wsn::Network net(&d, wsn::deploy_uniform(d, 20, rng), 30.0);
  for (int i = 0; i < net.size(); ++i) net.set_sensing_range(i, 15.0);

  const std::string p1 = "/tmp/laacad_render_dep.svg";
  const std::string p2 = "/tmp/laacad_render_vor.svg";
  EXPECT_TRUE(render_deployment(p1, net));
  EXPECT_TRUE(render_order_k_partition(p2, net, 2));
  // The partition rendering contains many cells; the file should be
  // substantial and well-formed.
  const std::string s = slurp(p2);
  EXPECT_GT(s.size(), 2000u);
  EXPECT_NE(s.find("</svg>"), std::string::npos);
  for (const auto& p : {p1, p2}) std::filesystem::remove(p);
}

}  // namespace
}  // namespace laacad::viz
