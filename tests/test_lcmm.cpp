#include <gtest/gtest.h>

#include <string>

#include "core/lcmm.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "sim/timeline.hpp"
#include "test_graphs.hpp"

namespace lcmm::core {
namespace {

// The model name is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, which would make the listed test
// names (and so the ctest names) change from one run to the next.
class LcmmIntegration
    : public ::testing::TestWithParam<std::tuple<std::string, hw::Precision>> {};

TEST_P(LcmmIntegration, PlanInvariants) {
  const auto [name, precision] = GetParam();
  auto g = models::build_by_name(name);
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), precision);

  const AllocationPlan umm = compiler.compile_umm(g);
  const AllocationPlan plan = compiler.compile(g);

  // 1. The Eq. 1 estimate never regresses past the UMM estimate under the
  //    SAME design; across designs the end-to-end claim is checked by the
  //    simulator tests.
  EXPECT_LE(plan.est_latency_s, plan.umm_latency_s * (1.0 + 1e-9));
  EXPECT_GT(plan.est_latency_s, 0.0);

  // 2. Resource accounting stays within the device.
  EXPECT_LE(plan.bram_used, plan.bram_total);
  EXPECT_LE(plan.uram_used, plan.uram_total);
  EXPECT_GE(plan.tensor_buffer_bytes, 0);
  EXPECT_LE(umm.sram_utilization(), plan.sram_utilization() + 1e-9);

  // 3. POL is a valid fraction and memory-bound layers exist.
  EXPECT_GE(plan.pol(), 0.0);
  EXPECT_LE(plan.pol(), 1.0);
  EXPECT_GT(plan.num_memory_bound_conv, 0) << "model should have bottlenecks";

  // 4. Buffer bookkeeping: on-chip buffers have matching physical records
  //    (promotion may add extra physical buffers beyond the colored ones).
  std::size_t on = 0;
  for (bool b : plan.buffer_on_chip) on += b;
  EXPECT_GE(plan.physical.size(), on);

  // 5. Every on-chip tensor belongs to an on-chip buffer.
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    if (plan.buffer_on_chip[b]) continue;
    for (std::size_t e : plan.buffers[b].members) {
      const TensorEntity& entity = plan.entities[e];
      // Off-chip buffers leave tensors off-chip, unless the residency
      // propagation pass granted a consumer a free read.
      if (entity.key.source == TensorSource::kWeight) {
        EXPECT_FALSE(plan.state.is_on(entity.key)) << tensor_name(g, entity.key);
      }
    }
  }

  // 6. UMM plan really is uniform.
  EXPECT_TRUE(umm.is_umm);
  EXPECT_EQ(umm.state.count(), 0);
  EXPECT_EQ(umm.tensor_buffer_bytes, 0);
  EXPECT_DOUBLE_EQ(umm.est_latency_s, umm.umm_latency_s);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndPrecisions, LcmmIntegration,
    ::testing::Combine(::testing::Values(std::string("resnet152"),
                                         std::string("googlenet"),
                                         std::string("inception_v4")),
                       ::testing::Values(hw::Precision::kInt8,
                                         hw::Precision::kInt16,
                                         hw::Precision::kFp32)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

TEST(Lcmm, SpeedupOnMemoryBoundModels) {
  // The headline claim, at the estimate level: LCMM beats UMM on the
  // evaluated models (the exact factor is the benches' business).
  auto g = models::build_resnet(152);
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto umm = compiler.compile_umm(g);
  const auto plan = compiler.compile(g);
  EXPECT_LT(plan.est_latency_s, umm.est_latency_s);
}

TEST(Lcmm, PassTogglesChangeEntitySets) {
  auto g = models::build_googlenet();
  LcmmOptions features_only;
  features_only.weight_prefetch = false;
  features_only.allow_fallback_to_umm = false;
  LcmmOptions weights_only;
  weights_only.feature_reuse = false;
  weights_only.allow_fallback_to_umm = false;

  LcmmCompiler fc(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, features_only);
  LcmmCompiler wc(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, weights_only);
  const auto fplan = fc.compile(g);
  const auto wplan = wc.compile(g);
  for (const auto& e : fplan.entities) {
    EXPECT_NE(e.key.source, TensorSource::kWeight);
  }
  for (const auto& e : wplan.entities) {
    EXPECT_EQ(e.key.source, TensorSource::kWeight);
  }
  EXPECT_TRUE(wplan.prefetch.edges().size() > 0);
  EXPECT_TRUE(fplan.prefetch.edges().empty());
}

TEST(Lcmm, ResidencyPromotionGrowsUramUse) {
  auto g = models::build_resnet(152);
  LcmmOptions with, without;
  without.residency_promotion = false;
  LcmmCompiler cw(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, with);
  LcmmCompiler co(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, without);
  const auto pw = cw.compile(g);
  const auto po = co.compile(g);
  EXPECT_GT(pw.uram_used, po.uram_used);
  EXPECT_FALSE(pw.resident_weights.empty());
  EXPECT_TRUE(po.resident_weights.empty());
}

TEST(Lcmm, CompileWithDesignSkipsDse) {
  auto g = lcmm::testing::chain3();
  LcmmOptions opt;
  opt.liveness.include_compute_bound = true;
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, opt);
  const auto design = lcmm::testing::small_design();
  const auto plan = compiler.compile_with_design(g, design);
  EXPECT_EQ(plan.design.array, design.array);
  EXPECT_EQ(plan.design.tile, design.tile);
}

TEST(Lcmm, UmmBaselineIsCompiledOnlyWhereItIsUsed) {
  // The baseline's consumers are the no-benefit fallback, the floor and
  // the caller. With the fallback off and no caller asking, a compile
  // leaves it uncompiled and ships the same plan.
  const graph::ComputationGraph g = models::build_googlenet();
  const hw::FpgaDevice device = hw::FpgaDevice::vu9p();
  LcmmOptions no_fallback;
  no_fallback.allow_fallback_to_umm = false;
  const LcmmCompiler compiler(device, hw::Precision::kInt16, no_fallback);
  const auto baselines = [](const auto& compile) {
    obs::StatsSession session;
    compile();
    return session.stats().span_count("umm_baseline");
  };
  AllocationPlan alone, asked, umm;
  EXPECT_EQ(baselines([&] { alone = compiler.compile(g); }), 0);
  EXPECT_EQ(baselines([&] { asked = compiler.compile(g, &umm); }), 1);
  EXPECT_EQ(alone.est_latency_s, asked.est_latency_s);
  EXPECT_EQ(alone.state.masks(), asked.state.masks());
  EXPECT_EQ(umm.est_latency_s, compiler.compile_umm(g).est_latency_s);
  EXPECT_EQ(baselines([&] {
              LcmmCompiler(device, hw::Precision::kInt16).compile(g);
            }),
            1);
}

TEST(Lcmm, BadOptionsThrow) {
  LcmmOptions opt;
  opt.sram_capacity_fraction = 0.0;
  EXPECT_THROW(LcmmCompiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, opt),
               std::invalid_argument);
}

TEST(Lcmm, LinearModelsStillCompile) {
  // AlexNet/VGG are the "simple networks" of the introduction: LCMM should
  // degrade gracefully (weights dominate; features mostly compute bound).
  for (const char* name : {"alexnet", "vgg16"}) {
    auto g = models::build_by_name(name);
    LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
    const auto plan = compiler.compile(g);
    EXPECT_LE(plan.est_latency_s, plan.umm_latency_s * (1 + 1e-9)) << name;
  }
  // Configs whose Eq. 1 estimate beats UMM but whose refined plan, with
  // its prefetch stalls, does not: the fallback must ship UMM.
  const std::tuple<const char*, hw::Precision, hw::FpgaDevice> stalled[] = {
      {"alexnet", hw::Precision::kFp32, hw::FpgaDevice::vu9p()},
      {"vgg16", hw::Precision::kInt16, hw::FpgaDevice::vu9p()},
      {"alexnet", hw::Precision::kFp32, hw::FpgaDevice::zu9eg()}};
  for (const auto& [name, precision, device] : stalled) {
    auto g = models::build_by_name(name);
    LcmmCompiler compiler(device, precision);
    AllocationPlan umm;
    const auto plan = compiler.compile(g, &umm);
    EXPECT_LE(sim::simulate(g, plan).total_s, sim::simulate(g, umm).total_s)
        << name << " " << to_string(precision) << " " << device.name;
  }
}

TEST(Lcmm, OutputResidencyPropagatesFreeReads) {
  // A chain where every layer is memory bound: if the producer's output
  // entity is on-chip, the consumer's read must be granted even when its
  // own input entity was not separately allocated.
  graph::ComputationGraph g("chain");
  auto x = g.add_input("in", {256, 28, 28});
  x = g.add_conv("a", x, {256, 1, 1, 1, 0, 0});
  g.add_conv("b", x, {256, 1, 1, 1, 0, 0});
  g.validate();
  LcmmOptions opt;
  opt.liveness.include_compute_bound = true;
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, opt);
  const auto plan = compiler.compile(g);
  if (plan.state.is_on({0, TensorSource::kOutput})) {
    EXPECT_TRUE(plan.state.is_on({1, TensorSource::kInput}));
  }
}

}  // namespace
}  // namespace lcmm::core
