#include <gtest/gtest.h>

#include "core/splitting.hpp"
#include "test_graphs.hpp"

namespace lcmm::core {
namespace {

using lcmm::testing::small_design;

TensorEntity make_entity(int layer, TensorSource src, std::int64_t bytes,
                         int def, int last) {
  return {{layer, src}, bytes, def, last};
}

/// Misspilling scenario: a huge low-value tensor shares a buffer with a
/// tiny high-value tensor; the merged buffer does not fit the capacity, so
/// without splitting both spill.
struct MisspillFixture {
  graph::ComputationGraph graph{"misspill"};
  std::unique_ptr<hw::PerfModel> model;
  std::unique_ptr<LatencyTables> tables;

  MisspillFixture() {
    // Layer 0: small input tensor, heavily memory bound (gain comes from
    // its input stream). Layer 1: huge input tensor, compute bound.
    auto a = graph.add_input("small_in", {512, 14, 14});  // ~100 KB int8
    auto big = graph.add_input("big_in", {256, 112, 112});  // ~3.2 MB int8
    graph.add_conv("hot", a, {64, 1, 1, 1, 0, 0});
    graph.add_conv("cold", big, {16, 7, 7, 2, 3, 3});
    graph.validate();
    // A wide-SIMD array makes the 1x1 layer decisively transfer bound.
    hw::AcceleratorDesign design = small_design();
    design.array = {16, 8, 16};
    model = std::make_unique<hw::PerfModel>(graph, design);
    tables = std::make_unique<LatencyTables>(*model);
  }

  std::vector<TensorEntity> entities() const {
    // Disjoint lifespans (layer 0 then layer 1) so they may share a buffer.
    return {make_entity(0, TensorSource::kInput,
                        graph.value(graph.layer(0).input).shape.elems(),
                        kBeforeExecution, 0),
            make_entity(1, TensorSource::kInput,
                        graph.value(graph.layer(1).input).shape.elems(),
                        1, 1)};
  }
};

TEST(Splitting, RecoversMisspilledTensor) {
  MisspillFixture fx;
  auto entities = fx.entities();
  // Lifespans [(-1),0] and [1,1] are disjoint: one shared buffer sized by
  // the big tensor.
  InterferenceGraph ig(entities);
  auto coloring = color_min_total_size(ig);
  ASSERT_EQ(coloring.num_colors, 1);
  const auto buffers = build_virtual_buffers(ig, coloring);

  // Capacity below the big tensor: the shared buffer spills entirely.
  const std::int64_t cap = entities[0].bytes * 2;
  const auto spilled = dnnk_allocate(ig, buffers, fx.tables.operator*(), cap);
  EXPECT_DOUBLE_EQ(spilled.gain_s, 0.0);

  // Splitting separates them; the small high-gain tensor gets on chip.
  InterferenceGraph ig2(entities);
  const SplitOutcome outcome =
      split_and_reallocate(ig2, *fx.tables, cap);
  EXPECT_GE(outcome.splits_performed, 1);
  EXPECT_GT(outcome.allocation.gain_s, 0.0);
  EXPECT_TRUE(outcome.allocation.state.is_on({0, TensorSource::kInput}));
  EXPECT_FALSE(outcome.allocation.state.is_on({1, TensorSource::kInput}));
}

TEST(Splitting, NoSplitWhenEverythingFits) {
  MisspillFixture fx;
  InterferenceGraph ig(fx.entities());
  const SplitOutcome outcome =
      split_and_reallocate(ig, *fx.tables, std::int64_t{1} << 40);
  EXPECT_EQ(ig.num_false_edges(), 0u);
  EXPECT_EQ(outcome.splits_performed, 0);
}

TEST(Splitting, NeverDecreasesGain) {
  MisspillFixture fx;
  auto entities = fx.entities();
  for (std::int64_t cap : {std::int64_t{0}, entities[0].bytes,
                           entities[1].bytes, entities[1].bytes * 2}) {
    InterferenceGraph plain(entities);
    const auto buffers = build_virtual_buffers(plain, color_min_total_size(plain));
    const auto base = dnnk_allocate(plain, buffers, *fx.tables, cap);
    InterferenceGraph split_graph(entities);
    const SplitOutcome outcome =
        split_and_reallocate(split_graph, *fx.tables, cap);
    EXPECT_GE(outcome.allocation.gain_s, base.gain_s - 1e-15) << "cap " << cap;
  }
}

TEST(Splitting, RespectsIterationBudget) {
  MisspillFixture fx;
  InterferenceGraph ig(fx.entities());
  SplitOptions opt;
  opt.max_iterations = 0;
  const SplitOutcome outcome =
      split_and_reallocate(ig, *fx.tables, fx.entities()[0].bytes * 2, {}, opt);
  EXPECT_EQ(outcome.splits_performed, 0);
}

TEST(Splitting, SizeRatioThresholdBlocksSimilarTensors) {
  MisspillFixture fx;
  auto entities = fx.entities();
  entities[1].bytes = entities[0].bytes;  // equal sizes: no "variance"
  InterferenceGraph ig(entities);
  const SplitOutcome outcome =
      split_and_reallocate(ig, *fx.tables, entities[0].bytes / 2);
  EXPECT_EQ(outcome.splits_performed, 0);
}

}  // namespace
}  // namespace lcmm::core
