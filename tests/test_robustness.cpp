// Robustness sweep: degenerate and adversarial graphs through the entire
// pipeline (DSE -> passes -> DNNK -> placement -> simulation). Nothing here
// checks performance; everything checks that invariants hold at the edges.
#include <gtest/gtest.h>

#include "core/lcmm.hpp"
#include "models/models.hpp"
#include "sim/memory_trace.hpp"
#include "sim/timeline.hpp"
#include "test_graphs.hpp"

namespace lcmm {
namespace {

void run_full_pipeline(const graph::ComputationGraph& g) {
  core::LcmmOptions opt;
  opt.liveness.include_compute_bound = true;
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, opt);
  // One compile per job, as driver::run_job does.
  sim::SimResult usim;
  sim::SimResult lsim;
  const auto plan = compiler.compile(g, nullptr, &usim, &lsim);
  EXPECT_GT(usim.total_s, 0.0);
  EXPECT_LE(lsim.total_s, usim.total_s);
  const auto trace = sim::build_memory_trace(g, plan, lsim);
  EXPECT_LE(trace.on_chip_bytes, trace.device_sram_bytes);
}

TEST(Robustness, SingleLayerNetwork) {
  graph::ComputationGraph g("one");
  auto in = g.add_input("in", {3, 8, 8});
  g.add_conv("only", in, {4, 3, 3, 1, 1, 1});
  g.validate();
  run_full_pipeline(g);
}

TEST(Robustness, OneByOneSpatialExtent) {
  graph::ComputationGraph g("pixel");
  auto in = g.add_input("in", {256, 1, 1});
  auto x = g.add_conv("a", in, {512, 1, 1, 1, 0, 0});
  g.add_conv("b", x, {128, 1, 1, 1, 0, 0});
  g.validate();
  run_full_pipeline(g);
}

TEST(Robustness, VeryDeepChain) {
  graph::ComputationGraph g("deep");
  auto x = g.add_input("in", {16, 8, 8});
  for (int i = 0; i < 300; ++i) {
    x = g.add_conv("c" + std::to_string(i), x, {16, 3, 3, 1, 1, 1});
  }
  g.validate();
  run_full_pipeline(g);
}

TEST(Robustness, WideFanOut) {
  // One value consumed by 16 branches, all concatenated: stresses the
  // per-use entity handling (16 t_if entities over one value).
  graph::ComputationGraph g("fan");
  auto in = g.add_input("in", {64, 14, 14});
  std::vector<graph::ValueId> parts;
  for (int i = 0; i < 16; ++i) {
    parts.push_back(
        g.add_conv("b" + std::to_string(i), in, {8, 1, 1, 1, 0, 0}));
  }
  auto cat = g.add_concat("cat", parts);
  g.add_conv("tail", cat, {32, 1, 1, 1, 0, 0});
  g.validate();
  run_full_pipeline(g);
}

TEST(Robustness, HugeChannelCounts) {
  graph::ComputationGraph g("huge");
  auto in = g.add_input("in", {4096, 4, 4});
  g.add_conv("squeeze", in, {4096, 1, 1, 1, 0, 0});
  g.validate();
  run_full_pipeline(g);
}

TEST(Robustness, TinyDeviceStillCompiles) {
  auto g = models::build_squeezenet();
  core::LcmmCompiler compiler(hw::FpgaDevice::zu9eg(), hw::Precision::kInt8);
  sim::SimResult usim;
  sim::SimResult lsim;
  const auto plan = compiler.compile(g, nullptr, &usim, &lsim);
  EXPECT_LE(lsim.total_s, usim.total_s);
  // ZU9EG has no URAM: every buffer must have landed in BRAM.
  for (const auto& pb : plan.physical) {
    EXPECT_EQ(pb.sram.pool, mem::SramPool::kBram);
  }
}

TEST(Robustness, ZeroCapacityBudget) {
  auto g = models::build_squeezenet();
  core::LcmmOptions opt;
  opt.sram_capacity_fraction = 1e-9;  // effectively zero R_sram
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, opt);
  auto plan = compiler.compile(g);
  // Nothing fits: the compiler degrades to (or falls back to) uniform.
  EXPECT_LE(plan.tensor_buffer_bytes,
            static_cast<std::int64_t>(plan.buffers.size()) *
                mem::SramPools::kUramBytes);
  EXPECT_LE(plan.est_latency_s, plan.umm_latency_s * (1 + 1e-9));
}

TEST(Robustness, StridedEverything) {
  graph::ComputationGraph g("strided");
  auto x = g.add_input("in", {3, 127, 127});  // odd extents
  x = g.add_conv("a", x, {32, 5, 5, 3, 2, 2});
  x = g.add_conv("b", x, {64, 3, 3, 2, 0, 0});
  x = g.add_pool("p", x, {graph::PoolType::kMax, 3, 2, 1});
  g.add_conv("c", x, {16, 1, 1, 1, 0, 0});
  g.validate();
  run_full_pipeline(g);
}

TEST(Robustness, AsymmetricKernelsAndPads) {
  graph::ComputationGraph g("asym");
  auto x = g.add_input("in", {32, 9, 33});
  x = g.add_conv("a", x, {32, 1, 7, 1, 0, 3});
  x = g.add_conv("b", x, {32, 7, 1, 1, 3, 0});
  g.validate();
  run_full_pipeline(g);
}

TEST(Robustness, DeterministicCompilation) {
  // Same inputs -> byte-identical plans (ordering discipline everywhere).
  auto g = models::build_googlenet();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto a = compiler.compile(g);
  const auto b = compiler.compile(g);
  EXPECT_EQ(a.est_latency_s, b.est_latency_s);
  EXPECT_EQ(a.buffer_on_chip, b.buffer_on_chip);
  EXPECT_EQ(a.tensor_buffer_bytes, b.tensor_buffer_bytes);
  EXPECT_EQ(a.resident_weights, b.resident_weights);
  ASSERT_EQ(a.entities.size(), b.entities.size());
  for (std::size_t i = 0; i < a.entities.size(); ++i) {
    EXPECT_EQ(a.entities[i].key, b.entities[i].key);
  }
}

}  // namespace
}  // namespace lcmm
