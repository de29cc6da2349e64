// Plan soundness through check::run_checks: compiler output checks clean,
// and hand-corrupted plans raise the stable code for each corruption.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "check/emit.hpp"
#include "models/models.hpp"
#include "test_graphs.hpp"

namespace lcmm::core {
namespace {

using check::Code;

check::CheckReport check_plan(const graph::ComputationGraph& g,
                               const AllocationPlan& plan,
                               const LcmmOptions& options = {}) {
  return check::run_checks(g, plan, check::CheckOptions::from(options));
}

AllocationPlan compiled_plan(const graph::ComputationGraph& g,
                             hw::Precision p = hw::Precision::kInt16) {
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), p);
  return compiler.compile(g);
}

class PlanValidation : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanValidation, CompilerOutputIsAlwaysSound) {
  auto g = models::build_by_name(GetParam());
  for (hw::Precision p : hw::kAllPrecisions) {
    const check::CheckReport report = check_plan(g, compiled_plan(g, p));
    EXPECT_EQ(report.num_errors(), 0) << check::to_text(report);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, PlanValidation,
                         ::testing::Values("resnet152", "googlenet",
                                           "inception_v4", "mobilenet_v1",
                                           "squeezenet"),
                         [](const auto& info) { return std::string(info.param); });

// The seed-only path of bench/ablation_passes' single-dse row: the
// stall-refined plan under the seed design (the UMM-optimal design at the
// heavy-URAM clock, no refine DSE step) ships that design and checks clean.
class SeedDesignValidation : public ::testing::TestWithParam<std::string> {};

TEST_P(SeedDesignValidation, SeedOnlyPlanIsSound) {
  auto g = models::build_by_name(GetParam());
  const hw::Precision p = hw::Precision::kInt16;
  for (const hw::FpgaDevice& device :
       {hw::FpgaDevice::vu9p(), hw::FpgaDevice::zu9eg()}) {
    const hw::AcceleratorDesign seed =
        hw::Dse(device, p, {.heavy_uram_use = true}).explore(g).design;
    const AllocationPlan plan =
        LcmmCompiler(device, p).compile_with_design(g, seed);
    EXPECT_EQ(plan.design.array, seed.array) << device.name;
    EXPECT_EQ(plan.design.tile, seed.tile) << device.name;
    EXPECT_EQ(plan.design.freq_mhz, seed.freq_mhz) << device.name;
    const check::CheckReport report = check_plan(g, plan);
    EXPECT_EQ(report.num_errors(), 0) << device.name << "\n"
                                      << check::to_text(report);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, SeedDesignValidation, ::testing::ValuesIn(models::model_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(PlanValidation, RandomGraphsAreSound) {
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    auto g = models::random_graph(seed);
    const AllocationPlan plan = compiled_plan(g, hw::Precision::kInt8);
    const check::CheckReport report = check_plan(g, plan);
    EXPECT_EQ(report.num_errors(), 0)
        << "seed " << seed << "\n" << check::to_text(report);
  }
}

TEST(PlanValidation, DetectsShapeMismatch) {
  auto g1 = lcmm::testing::chain3();
  auto g2 = models::build_googlenet();
  const AllocationPlan plan = compiled_plan(g2);
  const check::CheckReport report = check_plan(g1, plan);
  EXPECT_GT(report.num_errors(), 0);
  EXPECT_TRUE(report.has(Code::kPlanShapeMismatch));
}

TEST(PlanValidation, DetectsOvercommittedResources) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  plan.bram_used = plan.design.device.bram36_total + 1;
  const check::CheckReport report = check_plan(g, plan);
  EXPECT_GT(report.num_errors(), 0);
  EXPECT_TRUE(report.has(Code::kBramOversubscribed));
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
  const check::CheckReport report = check_plan(g, plan, options);
  EXPECT_GT(report.num_errors(), 0);
  EXPECT_TRUE(report.has(Code::kSpilledWeightOnChip));
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
  const check::CheckReport report = check_plan(g, plan);
  EXPECT_GT(report.num_errors(), 0);
  EXPECT_TRUE(report.has(Code::kLifespanOverlap));
  EXPECT_TRUE(report.has(Code::kMultipleOwners));
}

TEST(PlanValidation, DetectsBadResidency) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  plan.resident_weights.push_back(9999);
  const check::CheckReport report = check_plan(g, plan);
  EXPECT_GT(report.num_errors(), 0);
  EXPECT_TRUE(report.has(Code::kResidentBadLayer));
}

TEST(PlanValidation, UmmPlanIsSound) {
  auto g = models::build_googlenet();
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  const AllocationPlan umm = compiler.compile_umm(g);
  const check::CheckReport report = check_plan(g, umm);
  EXPECT_EQ(report.num_errors(), 0) << check::to_text(report);
}

}  // namespace
}  // namespace lcmm::core
