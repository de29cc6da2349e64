#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/lcmm.hpp"
#include "core/liveness.hpp"
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

std::map<TensorKey, TensorEntity> by_key(const std::vector<TensorEntity>& v) {
  std::map<TensorKey, TensorEntity> m;
  for (const auto& e : v) m.emplace(e.key, e);
  return m;
}

TEST(Liveness, ValueDefAndLastUse) {
  auto g = lcmm::testing::chain3();
  const auto& layer_b = g.layers()[1];
  // B's output is defined at step 1 and last used by C at step 2.
  EXPECT_EQ(value_def_step(g, layer_b.output), 1);
  EXPECT_EQ(value_last_use_step(g, layer_b.output), 2);
  // The graph input is live before execution.
  EXPECT_EQ(value_def_step(g, g.layers()[0].input), kBeforeExecution);
}

TEST(Liveness, ConcatValueDefIsLastProducer) {
  auto g = lcmm::testing::diamond();
  const auto cat = g.layers()[2].input;  // tail's input is the concat value
  // Producers are left (step 0) and right (step 1).
  EXPECT_EQ(value_def_step(g, cat), 1);
  EXPECT_EQ(value_last_use_step(g, cat), 2);
}

TEST(Liveness, ChainEntityIntervals) {
  auto g = lcmm::testing::chain3();
  hw::PerfModel model(g, small_design());
  const auto entities = by_key(build_feature_entities(model, all_layers()));

  // t_if(B): produced by A (step 0), consumed by B (step 1).
  const auto& if_b = entities.at({1, TensorSource::kInput});
  EXPECT_EQ(if_b.def_step, 0);
  EXPECT_EQ(if_b.last_use_step, 1);

  // t_of(A): defined at step 0, last read by B at step 1.
  const auto& of_a = entities.at({0, TensorSource::kOutput});
  EXPECT_EQ(of_a.def_step, 0);
  EXPECT_EQ(of_a.last_use_step, 1);

  // t_of(C): never read downstream; interval collapses to step 2.
  const auto& of_c = entities.at({2, TensorSource::kOutput});
  EXPECT_EQ(of_c.def_step, 2);
  EXPECT_EQ(of_c.last_use_step, 2);

  // t_if(A) reads the graph input.
  const auto& if_a = entities.at({0, TensorSource::kInput});
  EXPECT_EQ(if_a.def_step, kBeforeExecution);
}

TEST(Liveness, SameValueMultipleConsumersGetSeparateEntities) {
  auto g = lcmm::testing::diamond();
  hw::PerfModel model(g, small_design());
  const auto entities = by_key(build_feature_entities(model, all_layers()));
  // The input value feeds both "left" (0) and "right" (1): two entities,
  // the paper's f1/f2/f4 situation.
  const auto& if_left = entities.at({0, TensorSource::kInput});
  const auto& if_right = entities.at({1, TensorSource::kInput});
  EXPECT_EQ(g.layer(0).input, g.layer(1).input);
  EXPECT_EQ(if_left.bytes, if_right.bytes);
  EXPECT_EQ(if_left.last_use_step, 0);
  EXPECT_EQ(if_right.last_use_step, 1);
}

TEST(Liveness, ResidualEntityCreated) {
  auto g = lcmm::testing::residual_block();
  hw::PerfModel model(g, small_design());
  const auto entities = by_key(build_feature_entities(model, all_layers()));
  const auto& res = entities.at({2, TensorSource::kResidual});
  EXPECT_EQ(res.def_step, kBeforeExecution);  // shortcut is the graph input
  EXPECT_EQ(res.last_use_step, 2);
  EXPECT_GT(res.bytes, 0);
}

TEST(Liveness, BytesScaleWithPrecision) {
  auto g = lcmm::testing::chain3();
  hw::PerfModel m8(g, small_design(hw::Precision::kInt8));
  hw::PerfModel m32(g, small_design(hw::Precision::kFp32));
  const auto e8 = by_key(build_feature_entities(m8, all_layers()));
  const auto e32 = by_key(build_feature_entities(m32, all_layers()));
  for (const auto& [key, entity] : e8) {
    EXPECT_EQ(e32.at(key).bytes, entity.bytes * 4);
  }
}

TEST(Liveness, MemoryBoundFilterShrinksSet) {
  auto g = models::build_inception_v4();
  hw::PerfModel model(g, small_design());
  const auto all = build_feature_entities(model, all_layers());
  const auto bound_only = build_feature_entities(model, LivenessOptions{});
  EXPECT_LT(bound_only.size(), all.size());
  for (const auto& e : bound_only) {
    EXPECT_TRUE(model.timing(e.key.layer).memory_bound());
  }
}

TEST(OnChipState, SetAndCount) {
  OnChipState s(4);
  EXPECT_EQ(s.count(), 0);
  s.set({2, TensorSource::kWeight}, true);
  s.set({2, TensorSource::kInput}, true);
  EXPECT_TRUE(s.is_on({2, TensorSource::kWeight}));
  EXPECT_FALSE(s.is_on({1, TensorSource::kWeight}));
  EXPECT_EQ(s.count(), 2);
  s.set({2, TensorSource::kWeight}, false);
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.layer_mask(2), 1u << static_cast<int>(TensorSource::kInput));
}

TEST(Entity, OverlapSemantics) {
  TensorEntity a, b;
  a.def_step = 0; a.last_use_step = 2;
  b.def_step = 2; b.last_use_step = 5;
  EXPECT_TRUE(a.overlaps(b));  // closed intervals share step 2
  b.def_step = 3;
  EXPECT_FALSE(a.overlaps(b));
}

TEST(TensorName, NamesEachSourceFromItsKey) {
  const auto g = lcmm::testing::diamond();  // left, right, tail = 0, 1, 2
  EXPECT_EQ(tensor_name(g, {0, TensorSource::kInput}), "in@left");
  EXPECT_EQ(tensor_name(g, {1, TensorSource::kInput}), "in@right");
  EXPECT_EQ(tensor_name(g, {2, TensorSource::kInput}), "cat@tail");
  EXPECT_EQ(tensor_name(g, {0, TensorSource::kOutput}), "left.of");
  EXPECT_EQ(tensor_name(g, {1, TensorSource::kWeight}), "right.wt");
  EXPECT_EQ(tensor_name(g, {2, TensorSource::kWeight}), "tail.wt");

  const auto r = lcmm::testing::residual_block();  // reduce, conv3, expand
  EXPECT_EQ(tensor_name(r, {2, TensorSource::kResidual}), "in@expand.res");
  EXPECT_EQ(tensor_name(r, {2, TensorSource::kOutput}), "expand.of");
}

TEST(TensorName, ShippedPlansNameEveryEntityDistinctly) {
  // The memory trace orders records by (start step, name), so two entities
  // of one plan must never share a name.
  for (const std::string& name : models::model_names()) {
    const auto g = models::build_by_name(name);
    for (const hw::FpgaDevice& device :
         {hw::FpgaDevice::vu9p(), hw::FpgaDevice::zu9eg()}) {
      for (hw::Precision p : hw::kAllPrecisions) {
        const AllocationPlan plan = LcmmCompiler(device, p).compile(g);
        std::set<std::string> names;
        for (const TensorEntity& e : plan.entities) {
          EXPECT_TRUE(names.insert(tensor_name(g, e.key)).second)
              << name << " " << to_string(p) << " " << device.name << ": "
              << tensor_name(g, e.key) << " named twice";
        }
      }
    }
  }
}

}  // namespace
}  // namespace lcmm::core
