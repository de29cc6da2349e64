// Tests for the extension features: chrome traces, the U250 device and
// the random graph generator.
#include <gtest/gtest.h>

#include "core/lcmm.hpp"
#include "models/models.hpp"
#include "sim/chrome_trace.hpp"
#include "sim/timeline.hpp"

namespace lcmm {
namespace {

TEST(ChromeTrace, ContainsTracksAndLayerEvents) {
  auto g = models::build_squeezenet();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  auto plan = compiler.compile(g);
  const auto sim_result = sim::simulate(g, plan);
  const std::string json = sim::to_chrome_trace(g, sim_result);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("PE array"), std::string::npos);
  EXPECT_NE(json.find("DRAM: weights"), std::string::npos);
  EXPECT_NE(json.find("conv1"), std::string::npos);
  // Complete events carry phase "X" with microsecond timestamps.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_THROW(
      sim::write_chrome_trace(g, sim_result, "/nonexistent/dir/x.json"),
      std::runtime_error);
}

TEST(Devices, U250IsBiggerThanVu9p) {
  const auto u250 = hw::FpgaDevice::u250();
  const auto vu9p = hw::FpgaDevice::vu9p();
  EXPECT_GT(u250.dsp_total, vu9p.dsp_total);
  EXPECT_GT(u250.uram_bytes_total(), vu9p.uram_bytes_total());
  // A bigger array fits -> faster UMM baseline on the same network.
  auto g = models::build_googlenet();
  core::LcmmCompiler small(vu9p, hw::Precision::kInt16);
  core::LcmmCompiler big(u250, hw::Precision::kInt16);
  EXPECT_LT(big.compile_umm(g).est_latency_s,
            small.compile_umm(g).est_latency_s);
}

TEST(RandomGraphGenerator, RespectsOptions) {
  models::RandomGraphOptions opt;
  opt.min_layers = 3;
  opt.max_layers = 5;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto g = models::random_graph(seed, opt);
    EXPECT_GE(g.num_layers(), 3u);
    // Branch steps add several layers at once; allow the overshoot.
    EXPECT_LE(g.num_layers(), 5u * 4u);
    EXPECT_NO_THROW(g.validate());
  }
  // Determinism.
  EXPECT_EQ(models::random_graph(7).total_macs(),
            models::random_graph(7).total_macs());
}

}  // namespace
}  // namespace lcmm
