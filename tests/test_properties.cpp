#include <gtest/gtest.h>

#include <array>

#include "core/lcmm.hpp"
#include "models/models.hpp"
#include "oracle/coloring.hpp"
#include "sim/memory_trace.hpp"
#include "sim/timeline.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace lcmm {
namespace {

/// Library random DAG generator (models::random_graph) with the default
/// sizing the properties were written for.
graph::ComputationGraph random_graph(std::uint64_t seed) {
  return models::random_graph(seed);
}

class RandomGraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphProperty, ColoringIsAlwaysValid) {
  auto g = random_graph(GetParam());
  hw::PerfModel model(g, testing::small_design());
  core::LivenessOptions opt;
  opt.include_compute_bound = true;
  core::InterferenceGraph ig(core::build_feature_entities(model, opt));
  const auto coloring = core::color_min_total_size(ig);
  EXPECT_TRUE(oracle::coloring_is_valid(ig, coloring));
  // Buffer sizes: max of members; total matches.
  const auto buffers = core::build_virtual_buffers(ig, coloring);
  EXPECT_EQ(core::total_buffer_bytes(buffers), coloring.total_bytes);
}

TEST_P(RandomGraphProperty, DnnkRespectsEveryCapacity) {
  auto g = random_graph(GetParam());
  hw::PerfModel model(g, testing::small_design());
  core::LatencyTables tables(model);
  core::LivenessOptions opt;
  opt.include_compute_bound = true;
  core::InterferenceGraph ig(core::build_feature_entities(model, opt));
  const auto buffers =
      core::build_virtual_buffers(ig, core::color_min_total_size(ig));
  util::Rng rng(GetParam() ^ 0xC0FFEE);
  for (int trial = 0; trial < 6; ++trial) {
    const std::int64_t cap =
        static_cast<std::int64_t>(rng.next_below(8)) << 18;  // 0..2 MB
    const auto r = core::dnnk_allocate(ig, buffers, tables, cap);
    EXPECT_LE(r.bytes_used, std::max<std::int64_t>(cap, 0));
    EXPECT_GE(r.gain_s, -1e-12);
    // Monotone sanity: gain is the true Eq. 1 delta.
    const core::OnChipState umm(g.num_layers());
    EXPECT_NEAR(r.gain_s,
                tables.total_latency(umm) - tables.total_latency(r.state),
                1e-12);
  }
}

TEST_P(RandomGraphProperty, LcmmEstimateNeverWorseThanUmm) {
  auto g = random_graph(GetParam());
  core::LcmmOptions opt;
  opt.liveness.include_compute_bound = true;
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, opt);
  const auto plan = compiler.compile(g);
  EXPECT_LE(plan.est_latency_s, plan.umm_latency_s * (1 + 1e-9));
}

TEST_P(RandomGraphProperty, SimulatedPlanBeatsOrMatchesUmm) {
  auto g = random_graph(GetParam());
  for (hw::Precision p : {hw::Precision::kInt8, hw::Precision::kInt16}) {
    core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), p);
    const auto umm = compiler.compile_umm(g);
    const auto plan = compiler.compile(g);
    const auto usim = sim::simulate(g, umm);
    const auto psim = sim::simulate(g, plan);
    EXPECT_LE(psim.total_s, usim.total_s) << to_string(p);
    // Footprint property: the static on-chip footprint fits the device.
    const auto trace = sim::build_memory_trace(g, plan, psim);
    EXPECT_LE(trace.on_chip_bytes, trace.device_sram_bytes);
  }
}

TEST_P(RandomGraphProperty, DnnkBeatsOrMatchesGreedy) {
  auto g = random_graph(GetParam());
  hw::PerfModel model(g, testing::small_design());
  core::LatencyTables tables(model);
  core::LivenessOptions opt;
  opt.include_compute_bound = true;
  core::InterferenceGraph ig(core::build_feature_entities(model, opt));
  const auto buffers =
      core::build_virtual_buffers(ig, core::color_min_total_size(ig));
  const std::int64_t cap = core::total_buffer_bytes(buffers) / 2;
  const auto dp = core::dnnk_allocate(ig, buffers, tables, cap);
  const auto greedy = core::greedy_allocate(ig, buffers, tables, cap);
  // The DP handles value interactions the greedy ignores; it must win or
  // tie up to a small tolerance (pivot approximation at column j).
  EXPECT_GE(dp.gain_s, greedy.gain_s * 0.95 - 1e-12);
}

TEST_P(RandomGraphProperty, DnnkCloseToExactOnSmallInstances) {
  auto g = random_graph(GetParam());
  hw::PerfModel model(g, testing::small_design());
  core::LatencyTables tables(model);
  core::LivenessOptions opt;
  opt.include_compute_bound = true;
  // Conv layers only, so the instance stays small enough for the oracle.
  std::vector<core::TensorEntity> entities =
      core::build_feature_entities(model, opt);
  std::erase_if(entities, [&](const core::TensorEntity& e) {
    return !g.layer(e.key.layer).is_conv();
  });
  core::InterferenceGraph ig(std::move(entities));
  const auto buffers =
      core::build_virtual_buffers(ig, core::color_min_total_size(ig));
  ASSERT_LE(buffers.size(), 14u) << "instance too large for oracle";
  const std::int64_t cap = core::total_buffer_bytes(buffers) / 2;
  const auto dp = core::dnnk_allocate(ig, buffers, tables, cap);
  const auto best = core::exact_allocate(ig, buffers, tables, cap, {}, 14);
  EXPECT_LE(dp.gain_s, best.gain_s + 1e-12);
  EXPECT_GE(dp.gain_s, best.gain_s * 0.9 - 1e-12);
}

TEST_P(RandomGraphProperty, PrefetchWindowsAreCausal) {
  auto g = random_graph(GetParam());
  hw::PerfModel model(g, testing::small_design());
  core::LivenessOptions opt;
  opt.include_compute_bound = true;
  const auto prefetch = core::build_prefetch_schedule(model, opt);
  for (const auto& e : prefetch.edges()) {
    EXPECT_LT(e.start_step, e.target);
    EXPECT_GE(e.start_step, core::kBeforeExecution);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace lcmm
