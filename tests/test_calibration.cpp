// Calibration regression pins: the headline reproduction numbers, asserted
// as ranges. A model or DSE change that silently drifts the evaluation away
// from the paper's shape fails here first. (EXPERIMENTS.md documents the
// targets; update BOTH deliberately when recalibrating.)
#include <gtest/gtest.h>

#include <cmath>

#include "core/lcmm.hpp"
#include "hw/roofline.hpp"
#include "models/models.hpp"
#include "sim/timeline.hpp"

namespace lcmm {
namespace {

struct Pair {
  double umm_s;
  double lcmm_s;
  double speedup() const { return umm_s / lcmm_s; }
};

Pair run_pair(const char* model, hw::Precision p) {
  auto g = models::build_by_name(model);
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), p);
  const auto umm = compiler.compile_umm(g);
  const auto plan = compiler.compile(g);
  const auto usim = sim::simulate(g, umm);
  const auto lsim = sim::simulate(g, plan);
  return Pair{usim.total_s, lsim.total_s};
}

TEST(Calibration, GeomeanSpeedupNearPaper) {
  // Paper: 1.36x average across the 9 (model, precision) pairs.
  double log_sum = 0.0;
  int n = 0;
  for (const char* m : {"resnet152", "googlenet", "inception_v4"}) {
    for (hw::Precision p : hw::kAllPrecisions) {
      log_sum += std::log(run_pair(m, p).speedup());
      ++n;
    }
  }
  const double geomean = std::exp(log_sum / n);
  EXPECT_GE(geomean, 1.20);
  EXPECT_LE(geomean, 1.50);
}

TEST(Calibration, EveryPairWinsOrTies) {
  for (const char* m : {"resnet152", "googlenet", "inception_v4"}) {
    for (hw::Precision p : hw::kAllPrecisions) {
      EXPECT_GE(run_pair(m, p).speedup(), 0.999)
          << m << " " << hw::to_string(p);
    }
  }
}

TEST(Calibration, ResNetGainsMostAtInt8) {
  // Paper Tab. 1 ordering at 8-bit: RN (1.42) > GN (1.23), RN > IN (1.17).
  const double rn = run_pair("resnet152", hw::Precision::kInt8).speedup();
  const double gn = run_pair("googlenet", hw::Precision::kInt8).speedup();
  const double in = run_pair("inception_v4", hw::Precision::kInt8).speedup();
  EXPECT_GT(rn, gn);
  EXPECT_GT(rn, in);
  EXPECT_GT(rn, 1.3);
}

TEST(Calibration, UmmThroughputMagnitudes) {
  // UMM absolute throughput lands near the paper's Tab. 1 (same order of
  // magnitude and within ~35% for the well-pinned GoogLeNet row).
  auto g = models::build_googlenet();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  const auto umm = compiler.compile_umm(g);
  const auto sim = sim::simulate(g, umm);
  const double tops = 2.0 * g.total_macs() / sim.total_s / 1e12;
  EXPECT_NEAR(tops, 0.936, 0.936 * 0.35);  // paper row: 0.936 Tops
}

TEST(Calibration, InceptionMemoryBoundFraction) {
  // Paper §2.2: 58% of Inception-v4's conv layers are memory bound under
  // the uniform design. Our model lands lower (44%); pin the band so the
  // phenomenon itself cannot silently vanish.
  auto g = models::build_inception_v4();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  const auto umm = compiler.compile_umm(g);
  hw::PerfModel model(g, umm.design);
  const auto roofline = characterize_roofline(model);
  EXPECT_GE(roofline.memory_bound_fraction(), 0.30);
  EXPECT_LE(roofline.memory_bound_fraction(), 0.65);
}

TEST(Calibration, SpeedupRisesFrom8To16Bit) {
  // Paper Tab. 1: every network gains more at 16-bit than at 8-bit.
  for (const char* m : {"resnet152", "googlenet", "inception_v4"}) {
    EXPECT_GT(run_pair(m, hw::Precision::kInt16).speedup(),
              run_pair(m, hw::Precision::kInt8).speedup())
        << m;
  }
}

TEST(Calibration, LcmmUramUtilizationHigh) {
  // Paper Tab. 2: LCMM designs fill 80-88% of URAM on the weight-heavy
  // networks (residency promotion).
  auto g = models::build_resnet(152);
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto plan = compiler.compile(g);
  EXPECT_GE(plan.uram_utilization(), 0.60);
  EXPECT_GE(plan.pol(), 0.78);  // paper's lowest POL row
}

TEST(Calibration, LcmmClocksLowerThanUmm) {
  // Tab. 1: LCMM closes ~10 MHz below UMM (URAM routing pressure).
  auto g = models::build_googlenet();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto umm = compiler.compile_umm(g);
  const auto plan = compiler.compile(g);
  EXPECT_GT(umm.design.freq_mhz, plan.design.freq_mhz);
}

}  // namespace
}  // namespace lcmm
