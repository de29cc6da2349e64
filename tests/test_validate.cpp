#include <gtest/gtest.h>

#include "core/validate.hpp"
#include "models/models.hpp"
#include "sim/timeline.hpp"
#include "test_graphs.hpp"

namespace lcmm::core {
namespace {

AllocationPlan compiled_plan(const graph::ComputationGraph& g,
                             hw::Precision p = hw::Precision::kInt16) {
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), p);
  return compiler.compile(g);
}

class PlanValidation : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanValidation, CompilerOutputIsAlwaysSound) {
  auto g = models::build_by_name(GetParam());
  for (hw::Precision p : hw::kAllPrecisions) {
    AllocationPlan plan = compiled_plan(g, p);
    EXPECT_TRUE(validate_plan(g, plan).empty());
    // Also after stall refinement mutates the state.
    sim::refine_against_stalls(g, plan);
    const auto issues = validate_plan(g, plan);
    EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
  }
}

INSTANTIATE_TEST_SUITE_P(Models, PlanValidation,
                         ::testing::Values("resnet152", "googlenet",
                                           "inception_v4", "mobilenet_v1",
                                           "squeezenet"),
                         [](const auto& info) { return std::string(info.param); });

TEST(PlanValidation, RandomGraphsAreSound) {
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    auto g = models::random_graph(seed);
    const AllocationPlan plan = compiled_plan(g, hw::Precision::kInt8);
    const auto issues = validate_plan(g, plan);
    EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
  }
}

TEST(PlanValidation, DetectsShapeMismatch) {
  auto g1 = lcmm::testing::chain3();
  auto g2 = models::build_googlenet();
  const AllocationPlan plan = compiled_plan(g2);
  EXPECT_FALSE(validate_plan(g1, plan).empty());
}

TEST(PlanValidation, DetectsOvercommittedResources) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  plan.bram_used = plan.design.device.bram36_total + 1;
  const auto issues = validate_plan(g, plan);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("BRAM overcommitted"), std::string::npos);
}

TEST(PlanValidation, DetectsSpilledOnChipWeight) {
  // A small device and a tight DNNK budget make the knapsack spill weight
  // buffers; the fallback is off so the LCMM allocation is what ships.
  auto g = models::build_googlenet();
  LcmmOptions options;
  options.sram_capacity_fraction = 0.2;
  options.allow_fallback_to_umm = false;
  AllocationPlan plan =
      LcmmCompiler(hw::FpgaDevice::zu9eg(), hw::Precision::kInt16, options)
          .compile(g);
  // Find a spilled buffer containing a weight entity; force its bit on.
  bool injected = false;
  for (std::size_t b = 0; b < plan.buffers.size() && !injected; ++b) {
    if (plan.buffer_on_chip[b]) continue;
    for (std::size_t e : plan.buffers[b].members) {
      if (plan.entities[e].key.source == TensorSource::kWeight) {
        plan.state.set(plan.entities[e].key, true);
        injected = true;
        break;
      }
    }
  }
  ASSERT_TRUE(injected) << "the fixture no longer spills a weight buffer";
  EXPECT_FALSE(validate_plan(g, plan).empty());
}

TEST(PlanValidation, DetectsLifespanOverlapInBuffer) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  // Corrupt: merge two interfering entities into one buffer.
  ASSERT_GE(plan.entities.size(), 2u);
  std::size_t a = 0, b = 0;
  bool found = false;
  for (std::size_t i = 0; i < plan.entities.size() && !found; ++i) {
    for (std::size_t j = i + 1; j < plan.entities.size() && !found; ++j) {
      if (plan.entities[i].overlaps(plan.entities[j])) {
        a = i;
        b = j;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  VirtualBuffer bad;
  bad.id = static_cast<int>(plan.buffers.size());
  bad.bytes = std::max(plan.entities[a].bytes, plan.entities[b].bytes);
  bad.members = {a, b};
  plan.buffers.push_back(bad);
  plan.buffer_on_chip.push_back(false);
  const auto issues = validate_plan(g, plan);
  bool overlap_reported = false;
  bool multi_owner_reported = false;
  for (const std::string& msg : issues) {
    overlap_reported |= msg.find("overlapping lifespans") != std::string::npos;
    multi_owner_reported |= msg.find("several buffers") != std::string::npos;
  }
  EXPECT_TRUE(overlap_reported);
  EXPECT_TRUE(multi_owner_reported);
}

TEST(PlanValidation, DetectsBadResidency) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  plan.resident_weights.push_back(9999);
  auto issues = validate_plan(g, plan);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.back().find("bad layer"), std::string::npos);
}

TEST(PlanValidation, UmmPlanIsSound) {
  auto g = models::build_googlenet();
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  const AllocationPlan umm = compiler.compile_umm(g);
  EXPECT_TRUE(validate_plan(g, umm).empty());
}

}  // namespace
}  // namespace lcmm::core
