#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/liveness.hpp"
#include "core/prefetch.hpp"
#include "graph/dot.hpp"
#include "graph/graph.hpp"
#include "io/text_format.hpp"
#include "models/models.hpp"
#include "par/parallel_for.hpp"
#include "sim/timeline.hpp"
#include "test_graphs.hpp"

namespace lcmm::graph {
namespace {

TEST(FeatureShape, ElemsAndToString) {
  FeatureShape s{64, 28, 28};
  EXPECT_EQ(s.elems(), 64 * 28 * 28);
  EXPECT_EQ(s.to_string(), "64x28x28");
}

TEST(Layer, ConvShapeInferenceSamePadding) {
  Layer l;
  l.kind = LayerKind::kConv;
  l.conv = {128, 3, 3, 1, 1, 1};
  const FeatureShape out = infer_output_shape(l, {64, 28, 28});
  EXPECT_EQ(out.channels, 128);
  EXPECT_EQ(out.height, 28);
  EXPECT_EQ(out.width, 28);
}

TEST(Layer, ConvShapeInferenceStridedValid) {
  Layer l;
  l.kind = LayerKind::kConv;
  l.conv = {32, 3, 3, 2, 0, 0};
  const FeatureShape out = infer_output_shape(l, {3, 299, 299});
  EXPECT_EQ(out.height, 149);
  EXPECT_EQ(out.width, 149);
}

TEST(Layer, AsymmetricKernelShapes) {
  Layer l;
  l.kind = LayerKind::kConv;
  l.conv = {224, 1, 7, 1, 0, 3};
  const FeatureShape out = infer_output_shape(l, {192, 17, 17});
  EXPECT_EQ(out.height, 17);
  EXPECT_EQ(out.width, 17);
}

TEST(Layer, PoolCeilVersusFloor) {
  Layer ceil_pool;
  ceil_pool.kind = LayerKind::kPool;
  ceil_pool.pool = {PoolType::kMax, 3, 2, 0, false, /*ceil_mode=*/true};
  EXPECT_EQ(infer_output_shape(ceil_pool, {64, 112, 112}).height, 56);

  Layer floor_pool;
  floor_pool.kind = LayerKind::kPool;
  floor_pool.pool = {PoolType::kMax, 3, 2, 1, false, /*ceil_mode=*/false};
  EXPECT_EQ(infer_output_shape(floor_pool, {64, 112, 112}).height, 56);
}

TEST(Layer, GlobalPoolCollapsesSpatial) {
  Layer l;
  l.kind = LayerKind::kPool;
  l.pool = {PoolType::kAvg, 0, 1, 0, /*global=*/true};
  const FeatureShape out = infer_output_shape(l, {2048, 7, 7});
  EXPECT_EQ(out.height, 1);
  EXPECT_EQ(out.width, 1);
  EXPECT_EQ(out.channels, 2048);
}

TEST(Layer, OversizedWindowThrows) {
  Layer l;
  l.kind = LayerKind::kConv;
  l.conv = {8, 9, 9, 1, 0, 0};
  EXPECT_THROW(infer_output_shape(l, {3, 5, 5}), std::invalid_argument);
}

TEST(Layer, WeightElemsAndMacs) {
  Layer l;
  l.kind = LayerKind::kConv;
  l.conv = {128, 3, 3, 1, 1, 1};
  EXPECT_EQ(l.weight_elems(64), 128 * 64 * 9);
  const std::int64_t macs = l.macs({64, 28, 28}, {128, 28, 28});
  EXPECT_EQ(macs, static_cast<std::int64_t>(128) * 28 * 28 * 64 * 9);
}

TEST(Layer, ResidualAddsMacs) {
  Layer l;
  l.kind = LayerKind::kConv;
  l.conv = {256, 1, 1, 1, 0, 0};
  l.residual = 0;  // any valid-looking id
  const std::int64_t macs = l.macs({64, 14, 14}, {256, 14, 14});
  EXPECT_EQ(macs, static_cast<std::int64_t>(256) * 14 * 14 * 64 +
                      static_cast<std::int64_t>(256) * 14 * 14);
}

/// Every producer of a layer's input and residual has a smaller id, so the
/// ids are an execution order, and validate() agrees.
void expect_ids_are_execution_order(const ComputationGraph& g) {
  SCOPED_TRACE(g.name());
  for (const Layer& l : g.layers()) {
    for (ValueId in : {l.input, l.residual}) {
      if (in == kInvalidValue) continue;
      for (LayerId p : g.value(in).producers) EXPECT_LT(p, l.id) << l.name;
    }
  }
  EXPECT_NO_THROW(g.validate());
}

TEST(Graph, BuilderProducesTopologicalIds) {
  for (const std::string& name : models::model_names()) {
    const ComputationGraph g = models::build_by_name(name);
    expect_ids_are_execution_order(g);
    expect_ids_are_execution_order(io::parse_graph(io::serialize_graph(g)));
  }
  models::RandomGraphOptions options;
  options.max_layers = 60;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    expect_ids_are_execution_order(models::random_graph(seed, options));
  }
}

TEST(Graph, ConsumersAndProducersTracked) {
  auto g = lcmm::testing::diamond();
  const Value& in = g.value(g.layer(0).input);
  EXPECT_TRUE(in.is_graph_input());
  EXPECT_EQ(in.consumers.size(), 2u);  // left and right
  const Value& cat = g.value(g.layer(2).input);
  EXPECT_EQ(cat.producers.size(), 2u);
}

TEST(Graph, ShrinkToFitKeepsTheGraph) {
  auto g = lcmm::testing::diamond();
  std::vector<std::string> names;
  for (const Layer& l : g.layers()) names.push_back(l.name);
  const std::vector<LayerId> consumers = g.value(g.layer(0).input).consumers;
  g.shrink_to_fit();
  ASSERT_EQ(g.num_layers(), names.size());
  for (const Layer& l : g.layers()) EXPECT_EQ(l.name, names[l.id]);
  EXPECT_EQ(g.value(g.layer(0).input).consumers, consumers);
  g.validate();
  // The graph still grows after shrinking.
  g.add_conv("after", g.layer(2).output, {8, 1, 1, 1, 0, 0});
  g.validate();
  EXPECT_EQ(g.num_layers(), names.size() + 1);
}

TEST(Graph, ConcatMergesChannelsAndRetiresParts) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {8, 4, 4});
  auto a = g.add_conv("a", in, {16, 1, 1, 1, 0, 0});
  auto b = g.add_conv("b", in, {24, 1, 1, 1, 0, 0});
  std::array<ValueId, 2> parts{a, b};
  auto cat = g.add_concat("cat", parts);
  EXPECT_EQ(g.value(cat).shape.channels, 40);
  EXPECT_FALSE(g.value_alive(a));
  EXPECT_THROW((void)g.value(a), std::logic_error);
  // Channel offsets cover the concatenated value.
  EXPECT_EQ(g.layer(0).output_channel_offset, 0);
  EXPECT_EQ(g.layer(1).output_channel_offset, 16);
  g.validate();
}

TEST(Graph, ConcatRejectsConsumedParts) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {8, 4, 4});
  auto a = g.add_conv("a", in, {16, 1, 1, 1, 0, 0});
  auto b = g.add_conv("b", in, {16, 1, 1, 1, 0, 0});
  g.add_conv("user", a, {8, 1, 1, 1, 0, 0});  // consumes a
  std::array<ValueId, 2> parts{a, b};
  EXPECT_THROW(g.add_concat("cat", parts), std::invalid_argument);
}

TEST(Graph, ConcatRejectsSpatialMismatch) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {8, 8, 8});
  auto a = g.add_conv("a", in, {16, 1, 1, 1, 0, 0});
  auto b = g.add_conv("b", in, {16, 3, 3, 2, 1, 1});  // 4x4
  std::array<ValueId, 2> parts{a, b};
  EXPECT_THROW(g.add_concat("cat", parts), std::invalid_argument);
}

TEST(Graph, ResidualShapeMismatchThrows) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {64, 14, 14});
  auto mid = g.add_conv("mid", in, {32, 1, 1, 1, 0, 0});
  EXPECT_THROW(g.add_conv("bad", mid, {128, 1, 1, 1, 0, 0}, /*residual=*/in),
               std::invalid_argument);
}

TEST(Graph, FcRequiresOneByOneInput) {
  graph::ComputationGraph g("t");
  auto in = g.add_input("in", {64, 7, 7});
  EXPECT_THROW(g.add_fc("fc", in, 10), std::invalid_argument);
  auto pooled = g.add_pool("gap", in, {PoolType::kAvg, 0, 1, 0, true});
  auto out = g.add_fc("fc", pooled, 10);
  EXPECT_EQ(g.value(out).shape.channels, 10);
}

TEST(Graph, StagesRecordedInOrder) {
  graph::ComputationGraph g("t");
  g.set_stage("alpha");
  auto in = g.add_input("in", {8, 4, 4});
  auto x = g.add_conv("a", in, {8, 1, 1, 1, 0, 0});
  g.set_stage("beta");
  g.add_conv("b", x, {8, 1, 1, 1, 0, 0});
  EXPECT_EQ(g.layer(0).stage, "alpha");
  EXPECT_EQ(g.layer(1).stage, "beta");
  const auto stages = g.stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0], "alpha");
  EXPECT_EQ(stages[1], "beta");
}

TEST(Graph, TotalsAggregatePerLayerValues) {
  auto g = lcmm::testing::chain3();
  std::int64_t macs = 0, weights = 0;
  for (const Layer& l : g.layers()) {
    macs += g.layer_macs(l.id);
    weights += g.layer_weight_elems(l.id);
  }
  EXPECT_EQ(g.total_macs(), macs);
  EXPECT_EQ(g.total_weight_elems(), weights);
  EXPECT_EQ(g.num_conv_layers(), 3);
}

TEST(Graph, OutOfRangeAccessesThrow) {
  auto g = lcmm::testing::chain3();
  EXPECT_THROW((void)g.layer(99), std::out_of_range);
  EXPECT_THROW((void)g.value(-1), std::out_of_range);
}

TEST(Graph, BadInputShapeThrows) {
  graph::ComputationGraph g("t");
  EXPECT_THROW(g.add_input("in", {0, 4, 4}), std::invalid_argument);
}

/// What liveness, the prefetch backtrace and the simulator compute for one
/// plan, as doubles to compare exactly.
std::vector<double> pass_fingerprint(const ComputationGraph& g,
                                     const core::AllocationPlan& plan) {
  const hw::PerfModel model(g, plan.design);
  std::vector<double> out;
  const auto add = [&](auto... xs) {
    (out.push_back(static_cast<double>(xs)), ...);
  };
  for (const core::TensorEntity& e : core::build_feature_entities(model)) {
    add(e.bytes, e.def_step, e.last_use_step);
  }
  const core::PrefetchResult prefetch = core::build_prefetch_schedule(model);
  for (const core::PrefetchEdge& e : prefetch.edges()) {
    add(e.target, e.start_step, e.load_seconds, e.window_seconds);
  }
  const sim::SimResult sim = sim::simulate(model, plan);
  add(sim.total_s, sim.total_stall_s, sim.hidden_prefetch_s);
  for (const sim::LayerExecution& x : sim.layers) {
    add(x.start_s, x.end_s, x.stall_s);
  }
  return out;
}

// Workers read one const graph at once with no lock (run under TSan in CI).
// They are the shared graph's first readers, so lazily filled state in it
// would be filled concurrently.
TEST(Graph, WorkersShareOneConstGraph) {
  const ComputationGraph g = models::build_googlenet();
  const core::AllocationPlan plan =
      core::LcmmCompiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16)
          .compile(g);
  const ComputationGraph shared = models::build_googlenet();
  const auto parallel = par::parallel_map(
      8, 4, [&](std::size_t) { return pass_fingerprint(shared, plan); });
  const std::vector<double> serial = pass_fingerprint(g, plan);
  ASSERT_FALSE(serial.empty());
  for (const std::vector<double>& run : parallel) EXPECT_EQ(run, serial);
}

TEST(Dot, ContainsNodesAndEdges) {
  auto g = lcmm::testing::residual_block();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("reduce"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // residual edge
  EXPECT_NE(dot.find("->"), std::string::npos);
}

}  // namespace
}  // namespace lcmm::graph
