#include <gtest/gtest.h>

#include "core/interference.hpp"
#include "core/prefetch.hpp"
#include "models/models.hpp"
#include "test_graphs.hpp"

namespace lcmm::core {
namespace {

using lcmm::testing::small_design;

LivenessOptions all_layers() {
  LivenessOptions opt;
  opt.include_compute_bound = true;
  return opt;
}

TEST(Prefetch, EdgePerEligibleConvLayer) {
  auto g = lcmm::testing::chain3();
  hw::PerfModel model(g, small_design());
  const PrefetchResult r = build_prefetch_schedule(model, all_layers());
  EXPECT_EQ(r.edges().size(), 3u);  // every conv has weights
  for (const auto& e : r.edges()) {
    EXPECT_GT(e.load_seconds, 0.0);
    EXPECT_LT(e.start_step, e.target);
  }
}

TEST(Prefetch, LookupByTarget) {
  auto g = lcmm::testing::chain3();
  hw::PerfModel model(g, small_design());
  const PrefetchResult r = build_prefetch_schedule(model, all_layers());
  ASSERT_NE(r.edge_for(2), nullptr);
  EXPECT_EQ(r.edge_for(2)->target, 2);
  EXPECT_EQ(r.edge_for(99), nullptr);
}

TEST(Prefetch, BacktraceCoversLoadTime) {
  auto g = models::build_googlenet();
  hw::PerfModel model(g, small_design());
  const PrefetchResult r = build_prefetch_schedule(model, all_layers());
  for (const auto& e : r.edges()) {
    if (e.start_step == kBeforeExecution) continue;
    // The window from start_step to the target must cover the load...
    EXPECT_GE(e.window_seconds, e.load_seconds);
    EXPECT_TRUE(e.fully_hidden());
    // ...and must be minimal: one step later would be too short.
    double shorter = 0.0;
    for (int s = e.start_step + 1; s < e.target; ++s) {
      shorter += model.timing(s).umm_latency();
    }
    EXPECT_LT(shorter, e.load_seconds);
  }
}

TEST(Prefetch, EarlyLayersCannotHide) {
  auto g = lcmm::testing::chain3();
  hw::PerfModel model(g, small_design());
  const PrefetchResult r = build_prefetch_schedule(model, all_layers());
  // The first conv has no predecessors: nothing to hide behind.
  const PrefetchEdge* first = r.edge_for(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->start_step, kBeforeExecution);
  EXPECT_FALSE(first->fully_hidden());
  EXPECT_LT(r.num_fully_hidden(), static_cast<int>(r.edges().size()));
}

TEST(Prefetch, MemoryBoundFilterApplies) {
  auto g = models::build_inception_v4();
  hw::PerfModel model(g, small_design());
  const PrefetchResult bound_only =
      build_prefetch_schedule(model, LivenessOptions{});
  const PrefetchResult all = build_prefetch_schedule(model, all_layers());
  EXPECT_LT(bound_only.edges().size(), all.edges().size());
  for (const auto& e : bound_only.edges()) {
    EXPECT_TRUE(model.timing(e.target).memory_bound());
  }
}

TEST(Prefetch, WeightEntitiesUseWindowLifespans) {
  auto g = models::build_googlenet();
  hw::PerfModel model(g, small_design());
  const PrefetchResult r = build_prefetch_schedule(model, all_layers());
  const auto entities = build_weight_entities(model, r);
  EXPECT_EQ(entities.size(), r.edges().size());
  for (const auto& e : entities) {
    EXPECT_EQ(e.key.source, TensorSource::kWeight);
    const PrefetchEdge* edge = r.edge_for(e.key.layer);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(e.def_step, edge->start_step);
    EXPECT_EQ(e.last_use_step, e.key.layer);
    EXPECT_EQ(e.bytes, g.layer_weight_elems(e.key.layer) *
                           hw::bytes_per_elem(model.design().precision));
  }
}

TEST(Prefetch, DisjointWindowsEnableSharing) {
  // Two far-apart convs in a long chain: their prefetch windows must not
  // overlap, so the weight interference graph lets them share (Fig. 6).
  graph::ComputationGraph g("long_chain");
  auto x = g.add_input("in", {64, 28, 28});
  for (int i = 0; i < 12; ++i) {
    x = g.add_conv("c" + std::to_string(i), x, {64, 3, 3, 1, 1, 1});
  }
  hw::PerfModel model(g, small_design());
  const PrefetchResult r = build_prefetch_schedule(model, all_layers());
  auto entities = build_weight_entities(model, r);
  InterferenceGraph ig(std::move(entities));
  // Find the entities of the 2nd and the 11th conv.
  int a = -1, b = -1;
  for (std::size_t i = 0; i < ig.size(); ++i) {
    if (ig.entities()[i].key.layer == 2) a = static_cast<int>(i);
    if (ig.entities()[i].key.layer == 11) b = static_cast<int>(i);
  }
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_FALSE(ig.interferes(static_cast<std::size_t>(a),
                             static_cast<std::size_t>(b)));
}

TEST(Prefetch, PoolLayersHaveNoEdges) {
  auto g = models::build_googlenet();
  hw::PerfModel model(g, small_design());
  const PrefetchResult r = build_prefetch_schedule(model, all_layers());
  for (const auto& e : r.edges()) {
    EXPECT_TRUE(g.layer(e.target).is_conv());
  }
}

}  // namespace
}  // namespace lcmm::core
