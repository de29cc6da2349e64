// Tests for the extension features: DSP packing, streaming simulation and
// the energy model.
#include <gtest/gtest.h>

#include "core/lcmm.hpp"
#include "hw/dse.hpp"
#include "models/models.hpp"
#include "sim/chrome_trace.hpp"
#include "sim/energy.hpp"
#include "sim/timeline.hpp"
#include "test_graphs.hpp"

namespace lcmm {
namespace {

TEST(Packing, DoublesMacsNotDsps) {
  const hw::SystolicArrayConfig plain{32, 11, 16, 1};
  const hw::SystolicArrayConfig packed{32, 11, 16, 2};
  EXPECT_EQ(packed.macs_per_cycle(), 2 * plain.macs_per_cycle());
  EXPECT_EQ(packed.dsp_cost(hw::Precision::kInt8),
            plain.dsp_cost(hw::Precision::kInt8));
  EXPECT_EQ(packed.effective_cols(), 22);
  EXPECT_EQ(packed.to_string(), "32x11x16p2");
  const hw::SystolicArrayConfig bad_pack{32, 11, 16, 3};
  EXPECT_FALSE(bad_pack.valid());
}

TEST(Packing, RequiresInt8) {
  auto g = testing::chain3();
  hw::AcceleratorDesign d = testing::small_design(hw::Precision::kInt16);
  d.array.pixel_pack = 2;
  EXPECT_THROW(hw::PerfModel(g, d), std::invalid_argument);
  d.precision = hw::Precision::kInt8;
  EXPECT_NO_THROW(hw::PerfModel(g, d));
}

TEST(Packing, ReducesComputeCycles) {
  auto g = testing::chain3();
  hw::AcceleratorDesign plain = testing::small_design(hw::Precision::kInt8);
  hw::AcceleratorDesign packed = plain;
  packed.array.pixel_pack = 2;
  hw::PerfModel mp(g, plain), mq(g, packed);
  for (const auto& l : g.layers()) {
    if (!l.is_conv()) continue;
    EXPECT_LT(mq.timing(l.id).cycles, mp.timing(l.id).cycles) << l.name;
    // Traffic is untouched by packing.
    EXPECT_DOUBLE_EQ(mq.timing(l.id).if_bytes, mp.timing(l.id).if_bytes);
  }
}

TEST(Packing, DseOnlyOffersPackingWhenEnabled) {
  hw::DseOptions off;
  hw::DseOptions on;
  on.allow_int8_packing = true;
  const hw::Dse dse_off(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, off);
  const hw::Dse dse_on(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, on);
  for (const auto& a : dse_off.array_candidates()) EXPECT_EQ(a.pixel_pack, 1);
  bool any_packed = false;
  for (const auto& a : dse_on.array_candidates()) {
    any_packed |= a.pixel_pack == 2;
  }
  EXPECT_TRUE(any_packed);
  // fp32 never packs even when allowed.
  const hw::Dse dse_fp(hw::FpgaDevice::vu9p(), hw::Precision::kFp32, on);
  for (const auto& a : dse_fp.array_candidates()) EXPECT_EQ(a.pixel_pack, 1);
}

TEST(Stream, SingleImageMatchesSimulate) {
  auto g = models::build_googlenet();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  auto plan = compiler.compile(g);
  const auto single = sim::simulate(g, plan);
  const auto stream = sim::simulate_stream(g, plan, 1);
  EXPECT_NEAR(stream.total_s, single.total_s, 1e-15);
  EXPECT_NEAR(stream.first_image_s, single.total_s, 1e-15);
  EXPECT_NEAR(stream.steady_image_s, single.total_s, 1e-15);
}

TEST(Stream, SteadyStateAtLeastAsFastAsFirstImage) {
  for (const char* name : {"resnet152", "googlenet"}) {
    auto g = models::build_by_name(name);
    core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
    auto plan = compiler.compile(g);
    const auto stream = sim::simulate_stream(g, plan, 4);
    EXPECT_LE(stream.steady_image_s, stream.first_image_s * (1 + 1e-12)) << name;
    EXPECT_GT(stream.throughput_images_per_s(), 0.0);
    // Total is consistent with the per-image numbers.
    EXPECT_GE(stream.total_s, stream.first_image_s);
    EXPECT_NEAR(stream.total_s,
                stream.first_image_s + 3 * stream.steady_image_s,
                stream.total_s * 0.25)
        << name;
  }
}

TEST(Stream, CrossImageWindowsAbsorbWarmupStalls) {
  // A plan with unhidden first-layer prefetches: in a stream, image 2+ can
  // prefetch during image 1, so steady stalls <= first-image stalls.
  auto g = models::build_resnet(152);
  core::LcmmOptions opt;
  opt.allow_fallback_to_umm = false;
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, opt);
  auto plan = compiler.compile(g);
  const auto one = sim::simulate_stream(g, plan, 1);
  const auto many = sim::simulate_stream(g, plan, 5);
  // Average stall per image in the stream is no worse than the cold image.
  EXPECT_LE(many.total_stall_s / 5.0, one.total_stall_s + 1e-12);
}

TEST(Stream, InvalidArgumentsThrow) {
  auto g = testing::chain3();
  core::LcmmOptions opt;
  opt.liveness.include_compute_bound = true;
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, opt);
  auto plan = compiler.compile(g);
  EXPECT_THROW(sim::simulate_stream(g, plan, 0), std::invalid_argument);
  auto other = models::build_googlenet();
  EXPECT_THROW(sim::simulate_stream(other, plan, 2), std::invalid_argument);
}

TEST(Energy, LcmmMovesFewerDramBytes) {
  auto g = models::build_resnet(152);
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto umm = compiler.compile_umm(g);
  const auto plan = compiler.compile(g);
  const auto usim = sim::simulate(g, umm);
  const auto lsim = sim::simulate(g, plan);
  const auto eu = sim::estimate_energy(g, umm, usim);
  const auto el = sim::estimate_energy(g, plan, lsim);
  EXPECT_LT(el.dram_bytes, eu.dram_bytes);
  EXPECT_LT(el.total_mj(), eu.total_mj());
  EXPECT_GT(el.gops_per_joule(2.0 * g.total_macs()),
            eu.gops_per_joule(2.0 * g.total_macs()));
}

TEST(Energy, ComponentsAreNonNegativeAndSum) {
  auto g = models::build_squeezenet();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  auto plan = compiler.compile(g);
  const auto sim_result = sim::simulate(g, plan);
  const auto e = sim::estimate_energy(g, plan, sim_result);
  EXPECT_GE(e.dram_mj, 0.0);
  EXPECT_GE(e.sram_mj, 0.0);
  EXPECT_GT(e.compute_mj, 0.0);
  EXPECT_GT(e.static_mj, 0.0);
  EXPECT_NEAR(e.total_mj(), e.dram_mj + e.sram_mj + e.compute_mj + e.static_mj,
              1e-12);
}

TEST(Energy, UmmDramBytesMatchTimingTables) {
  auto g = testing::chain3();
  core::LcmmOptions opt;
  opt.liveness.include_compute_bound = true;
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, opt);
  const auto umm = compiler.compile_umm(g);
  const auto sim_result = sim::simulate(g, umm);
  const auto e = sim::estimate_energy(g, umm, sim_result);
  hw::PerfModel model(g, umm.design);
  double expected = 0.0;
  for (const auto& l : g.layers()) {
    const auto& t = model.timing(l.id);
    expected += t.if_bytes + t.res_bytes + t.wt_bytes + t.of_bytes;
  }
  EXPECT_NEAR(e.dram_bytes, expected, expected * 1e-12);
}

TEST(Energy, ResidentWeightsAvoidReload) {
  auto g = models::build_resnet(152);
  core::LcmmOptions with;
  core::LcmmOptions without;
  without.residency_promotion = false;
  core::LcmmCompiler cw(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, with);
  core::LcmmCompiler co(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, without);
  const auto pw = cw.compile(g);
  const auto po = co.compile(g);
  const auto sw = sim::simulate(g, pw);
  const auto so = sim::simulate(g, po);
  EXPECT_LT(sim::estimate_energy(g, pw, sw).dram_bytes,
            sim::estimate_energy(g, po, so).dram_bytes);
}

TEST(Batch, ScalesActivationsNotWeights) {
  auto g = testing::chain3();
  hw::AcceleratorDesign b1 = testing::small_design();
  hw::AcceleratorDesign b4 = b1;
  b4.batch = 4;
  hw::PerfModel m1(g, b1), m4(g, b4);
  for (const auto& l : g.layers()) {
    const auto& t1 = m1.timing(l.id);
    const auto& t4 = m4.timing(l.id);
    EXPECT_NEAR(t4.if_bytes, 4 * t1.if_bytes, 1e-6) << l.name;
    EXPECT_NEAR(t4.of_bytes, 4 * t1.of_bytes, 1e-6) << l.name;
    EXPECT_DOUBLE_EQ(t4.wt_bytes, t1.wt_bytes) << l.name;
    EXPECT_EQ(t4.nominal_macs, 4 * t1.nominal_macs) << l.name;
    // Compute scales by ~4 (fill overhead is per tile, not per image).
    EXPECT_GE(t4.cycles, 3 * t1.cycles);
    EXPECT_LE(t4.cycles, 4 * t1.cycles);
  }
  EXPECT_DOUBLE_EQ(m4.total_nominal_ops(), 4 * m1.total_nominal_ops());
}

TEST(Batch, InvalidBatchThrows) {
  auto g = testing::chain3();
  hw::AcceleratorDesign d = testing::small_design();
  d.batch = 0;
  EXPECT_THROW(hw::PerfModel(g, d), std::invalid_argument);
}

TEST(Batch, FeatureEntitiesGrowWithBatch) {
  auto g = testing::chain3();
  hw::AcceleratorDesign d = testing::small_design();
  d.batch = 2;
  hw::PerfModel m1(g, testing::small_design()), m2(g, d);
  core::LivenessOptions opt;
  opt.include_compute_bound = true;
  const auto e1 = core::build_feature_entities(m1, opt);
  const auto e2 = core::build_feature_entities(m2, opt);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e2[i].bytes, 2 * e1[i].bytes);
  }
}

TEST(Energy, MacCostsOrdered) {
  const sim::EnergyModelOptions opt;
  EXPECT_LT(opt.mac_pj(hw::Precision::kInt8), opt.mac_pj(hw::Precision::kInt16));
  EXPECT_LT(opt.mac_pj(hw::Precision::kInt16), opt.mac_pj(hw::Precision::kFp32));
}

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
