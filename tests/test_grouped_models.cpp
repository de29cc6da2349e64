#include <gtest/gtest.h>

#include "core/lcmm.hpp"
#include "hw/perf_model.hpp"
#include "models/models.hpp"
#include "sim/timeline.hpp"
#include "test_graphs.hpp"

namespace lcmm {
namespace {

using graph::ConvParams;
using graph::FeatureShape;

TEST(GroupedConv, ShapeAndWeights) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {64, 14, 14});
  ConvParams grouped{128, 3, 3, 1, 1, 1};
  grouped.groups = 4;
  auto out = g.add_conv("g4", in, grouped);
  EXPECT_EQ(g.value(out).shape, (FeatureShape{128, 14, 14}));
  // Weights: 128 x (64/4) x 3 x 3.
  EXPECT_EQ(g.layer_weight_elems(0), 128 * 16 * 9);
  // MACs: out elems x (C/g) x K^2.
  EXPECT_EQ(g.layer_macs(0), static_cast<std::int64_t>(128) * 14 * 14 * 16 * 9);
}

TEST(GroupedConv, DepthwiseIsGroupsEqualsChannels) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {32, 28, 28});
  ConvParams dw{32, 3, 3, 1, 1, 1};
  dw.groups = 32;
  g.add_conv("dw", in, dw);
  EXPECT_EQ(g.layer_weight_elems(0), 32 * 9);
  EXPECT_EQ(g.layer_macs(0), static_cast<std::int64_t>(32) * 28 * 28 * 9);
}

TEST(GroupedConv, InvalidGroupingThrows) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {30, 8, 8});
  ConvParams bad{64, 1, 1, 1, 0, 0};
  bad.groups = 4;  // 30 % 4 != 0
  EXPECT_THROW(g.add_conv("bad", in, bad), std::invalid_argument);
  ConvParams bad2{30, 1, 1, 1, 0, 0};
  bad2.groups = 4;  // 30 % 4 != 0 on the output side too
  EXPECT_THROW(g.add_conv("bad2", in, bad2), std::invalid_argument);
}

TEST(GroupedConv, GeometryUsesGroupChannels) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {64, 28, 28});
  ConvParams dw{64, 3, 3, 1, 1, 1};
  dw.groups = 64;
  g.add_conv("dw", in, dw);
  const hw::SystolicArrayConfig array{16, 8, 8};
  const hw::TileConfig tile{32, 14, 14};
  const auto geom = layer_tile_geometry(g, 0, array, tile);
  EXPECT_EQ(geom.group_channels, 1);
  EXPECT_EQ(geom.n_c, 1);
  // An m-tile of 16 output channels touches exactly its 16 input channels.
  EXPECT_EQ(geom.channels_per_mtile, 16);
  EXPECT_EQ(geom.n_m, 4);
}

TEST(GroupedConv, DepthwiseReadsInputOnceTotal) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {64, 28, 28});
  ConvParams dw{64, 3, 3, 1, 1, 1};
  dw.groups = 64;
  g.add_conv("dw", in, dw);
  hw::PerfModel model(g, testing::small_design());
  const auto& t = model.timing(0);
  const double once = 64.0 * 28 * 28;  // input elems, int8
  // Depthwise: no output-channel reload factor (each channel read once,
  // modulo spatial halo).
  EXPECT_LT(t.if_bytes, once * 1.3);
  EXPECT_GE(t.if_bytes, once);
}

TEST(GroupedConv, DenseEquivalentWhenGroupsIsOne) {
  graph::ComputationGraph a("a"), b("b");
  auto ia = a.add_input("in", {64, 14, 14});
  auto ib = b.add_input("in", {64, 14, 14});
  ConvParams dense{128, 3, 3, 1, 1, 1};
  ConvParams g1 = dense;
  g1.groups = 1;
  a.add_conv("c", ia, dense);
  b.add_conv("c", ib, g1);
  EXPECT_EQ(a.layer_macs(0), b.layer_macs(0));
  hw::PerfModel ma(a, testing::small_design());
  hw::PerfModel mb(b, testing::small_design());
  EXPECT_DOUBLE_EQ(ma.timing(0).if_bytes, mb.timing(0).if_bytes);
  EXPECT_EQ(ma.timing(0).cycles, mb.timing(0).cycles);
}

TEST(MobileNet, Census) {
  auto g = models::build_mobilenet_v1();
  // conv1 + 13 x (dw + pw) + fc = 28 conv layers.
  EXPECT_EQ(g.num_conv_layers(), 28);
  EXPECT_NEAR(static_cast<double>(g.total_macs()) / 1e9, 0.57, 0.06);
  EXPECT_NEAR(static_cast<double>(g.total_weight_elems()) / 1e6, 4.2, 0.4);
  // Final feature map before the classifier is 1024x7x7.
  for (const auto& l : g.layers()) {
    if (l.name == "dws13/pw") {
      EXPECT_EQ(g.value(l.output).shape, (graph::FeatureShape{1024, 7, 7}));
    }
  }
}

TEST(MobileNet, DepthwiseLayersAreMemoryBound) {
  auto g = models::build_mobilenet_v1();
  hw::PerfModel model(g, testing::small_design(hw::Precision::kInt16));
  int dw_bound = 0, dw_total = 0;
  for (const auto& l : g.layers()) {
    if (l.is_conv() && l.conv.groups > 1) {
      ++dw_total;
      dw_bound += model.timing(l.id).memory_bound();
    }
  }
  EXPECT_EQ(dw_total, 13);
  // Depthwise stages starve the reduction SIMD: nearly all transfer bound.
  EXPECT_GE(dw_bound, 10);
}

TEST(MobileNet, LcmmHelpsSubstantially) {
  auto g = models::build_mobilenet_v1();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto umm = compiler.compile_umm(g);
  const auto plan = compiler.compile(g);
  const auto usim = sim::simulate(g, umm);
  const auto lsim = sim::simulate(g, plan);
  EXPECT_GT(usim.total_s / lsim.total_s, 1.05);
}

TEST(SqueezeNet, Census) {
  auto g = models::build_squeezenet();
  // conv1 + 8 fires x 3 + conv10 = 26 conv layers.
  EXPECT_EQ(g.num_conv_layers(), 26);
  EXPECT_NEAR(static_cast<double>(g.total_weight_elems()) / 1e6, 1.24, 0.15);
  // Fire module output: expand1x1 + expand3x3 channels.
  for (const auto& l : g.layers()) {
    if (l.name == "fire9/expand3x3") {
      EXPECT_EQ(g.value(l.output).shape.channels, 512);
    }
  }
}

TEST(SqueezeNet, CompilesUnderLcmm) {
  auto g = models::build_squeezenet();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  const auto plan = compiler.compile(g);
  EXPECT_LE(plan.est_latency_s, plan.umm_latency_s * (1 + 1e-9));
}

TEST(Registry, IncludesNewModels) {
  auto names = models::model_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "mobilenet_v1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "squeezenet"), names.end());
}

}  // namespace
}  // namespace lcmm
