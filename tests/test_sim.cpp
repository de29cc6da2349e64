#include <gtest/gtest.h>

#include "models/models.hpp"
#include "sim/memory_trace.hpp"
#include "sim/report.hpp"
#include "sim/timeline.hpp"
#include "test_graphs.hpp"

namespace lcmm::sim {
namespace {

using core::AllocationPlan;
using core::LcmmCompiler;
using core::TensorSource;

/// Calls `fn(graph, compiler, label)` for every zoo net x precision x
/// {vu9p, zu9eg, u250}.
template <typename Fn>
void for_each_zoo_config(Fn fn) {
  for (const std::string& name : models::model_names()) {
    const auto g = models::build_by_name(name);
    for (const hw::FpgaDevice& device :
         {hw::FpgaDevice::vu9p(), hw::FpgaDevice::zu9eg(), hw::FpgaDevice::u250()}) {
      for (hw::Precision p : hw::kAllPrecisions) {
        fn(g, LcmmCompiler(device, p), name + " " + to_string(p) + " " + device.name);
      }
    }
  }
}

TEST(Simulator, UmmMatchesEq1Sum) {
  // Exact, not approximate: the no-benefit fallback compares a UMM plan's
  // Eq. 1 estimate with a refined plan's simulated latency.
  for_each_zoo_config([](const graph::ComputationGraph& g,
                         const LcmmCompiler& compiler, const std::string& label) {
    const AllocationPlan umm = compiler.compile_umm(g);
    const SimResult sim = simulate(g, umm);
    EXPECT_EQ(sim.total_s, umm.est_latency_s) << label;
    EXPECT_EQ(sim.total_stall_s, 0.0) << label;
    EXPECT_EQ(sim.layers.size(), g.num_layers()) << label;
  });
}

TEST(Simulator, CompiledPlansAreAtTheirRefinementFixedPoint) {
  // compile() ships the stall-refined plan: its estimate is its simulated
  // latency, and refining it again demotes nothing.
  for_each_zoo_config([](const graph::ComputationGraph& g,
                         const LcmmCompiler& compiler, const std::string& label) {
    const AllocationPlan plan = compiler.compile(g);
    EXPECT_EQ(simulate(g, plan).total_s, plan.est_latency_s) << label;
    AllocationPlan again = plan;
    refine_against_stalls(g, again);
    EXPECT_EQ(again.state.masks(), plan.state.masks()) << label;
    EXPECT_EQ(again.est_latency_s, plan.est_latency_s) << label;
  });
}

TEST(Simulator, LayersAreContiguous) {
  auto g = models::build_googlenet();
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  auto plan = compiler.compile(g);
  const SimResult sim = simulate(g, plan);
  double t = 0.0;
  for (const LayerExecution& e : sim.layers) {
    EXPECT_NEAR(e.start_s, t + e.stall_s, 1e-15);
    EXPECT_GE(e.end_s, e.start_s);
    t = e.end_s;
  }
  EXPECT_DOUBLE_EQ(sim.total_s, t);
}

TEST(Simulator, PerLayerLatencyIsEq1Max) {
  auto g = models::build_googlenet();
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  auto plan = compiler.compile(g);
  const SimResult sim = simulate(g, plan);
  for (const LayerExecution& e : sim.layers) {
    EXPECT_NEAR(e.latency_s(),
                std::max({e.compute_s, e.if_s, e.wt_s, e.of_s}), 1e-15);
  }
}

TEST(Simulator, OnChipTensorsDropTheirTerms) {
  auto g = models::build_googlenet();
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  auto plan = compiler.compile(g);
  hw::PerfModel model(g, plan.design);
  const SimResult sim = simulate(g, plan);
  for (const LayerExecution& e : sim.layers) {
    const auto& t = model.timing(e.layer);
    if (plan.state.is_on({e.layer, TensorSource::kInput})) {
      EXPECT_LT(e.if_s, t.if_s + t.res_s + 1e-18);
    } else {
      EXPECT_GE(e.if_s, t.if_s);
    }
    if (plan.state.is_on({e.layer, TensorSource::kWeight})) {
      EXPECT_DOUBLE_EQ(e.wt_s, 0.0);
    }
    if (plan.state.is_on({e.layer, TensorSource::kOutput})) {
      EXPECT_DOUBLE_EQ(e.of_s, 0.0);
    }
  }
}

TEST(Simulator, LcmmNeverSlowerThanUmmEndToEnd) {
  for (const char* name : {"resnet152", "googlenet", "inception_v4"}) {
    auto g = models::build_by_name(name);
    for (hw::Precision p : hw::kAllPrecisions) {
      LcmmCompiler compiler(hw::FpgaDevice::vu9p(), p);
      const auto umm = compiler.compile_umm(g);
      const auto plan = compiler.compile(g);
      const SimResult usim = simulate(g, umm);
      const SimResult psim = simulate(g, plan);
      EXPECT_LE(psim.total_s, usim.total_s) << name << " " << to_string(p);
    }
  }
}

TEST(Simulator, StallsOnlyOnUnhiddenPrefetches) {
  auto g = models::build_resnet(152);
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  auto plan = compiler.compile(g);
  const SimResult sim = simulate(g, plan);
  const std::vector<bool> resident = plan.resident_weight_mask(g.num_layers());
  for (const LayerExecution& e : sim.layers) {
    if (e.stall_s > 0) {
      EXPECT_TRUE(plan.state.is_on({e.layer, TensorSource::kWeight}));
      EXPECT_FALSE(resident[static_cast<std::size_t>(e.layer)]);
    }
  }
}

TEST(Simulator, RefinementRemovesHarmfulStalls) {
  auto g = models::build_resnet(152);
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto plan = compiler.compile(g);
  hw::PerfModel model(g, plan.design);
  const SimResult sim = simulate(g, plan);
  for (const LayerExecution& e : sim.layers) {
    EXPECT_LE(e.latency_s() + e.stall_s,
              model.timing(e.layer).umm_latency() + 1e-12);
  }
  EXPECT_EQ(plan.est_latency_s, sim.total_s);
}

TEST(Simulator, MismatchedPlanThrows) {
  auto g1 = lcmm::testing::chain3();
  auto g2 = models::build_googlenet();
  core::LcmmOptions opt;
  opt.liveness.include_compute_bound = true;
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8, opt);
  const auto plan = compiler.compile(g1);
  EXPECT_THROW(simulate(g2, plan), std::invalid_argument);
}

TEST(MemoryTrace, RecordsMatchEntities) {
  auto g = models::build_googlenet();
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  auto plan = compiler.compile(g);
  const SimResult sim = simulate(g, plan);
  const MemoryTrace trace = build_memory_trace(g, plan, sim);
  EXPECT_EQ(trace.records.size(), plan.entities.size());
  for (const TensorResidency& r : trace.records) {
    EXPECT_LE(r.start_s, r.end_s);
    EXPECT_GE(r.end_s, 0.0);
    EXPECT_LE(r.end_s, sim.total_s + 1e-12);
    EXPECT_EQ(r.on_chip, plan.state.is_on(r.key));
  }
  // Static on-chip footprint never exceeds the device.
  EXPECT_LE(trace.on_chip_bytes, trace.device_sram_bytes);
}

TEST(MemoryTrace, GanttRendersBothStates) {
  auto g = models::build_googlenet();
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  auto plan = compiler.compile(g);
  const SimResult sim = simulate(g, plan);
  const MemoryTrace trace = build_memory_trace(g, plan, sim);
  const std::string gantt = trace.ascii_gantt(16, 40);
  EXPECT_NE(gantt.find('#'), std::string::npos);   // some tensor on-chip
  EXPECT_NE(gantt.find("vbuf"), std::string::npos);
}

TEST(Report, FieldsConsistent) {
  auto g = models::build_resnet(152);
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  const auto plan = compiler.compile(g);
  const SimResult sim = simulate(g, plan);
  const DesignReport r = make_report(g, plan, sim);
  EXPECT_EQ(r.network, "resnet152");
  EXPECT_NEAR(r.latency_ms, sim.total_s * 1e3, 1e-12);
  EXPECT_NEAR(r.tops * 1e12 * sim.total_s, 2.0 * g.total_macs(), 1e3);
  EXPECT_GT(r.dsp_util, 0.5);
  EXPECT_LE(r.dsp_util, 1.0);
  EXPECT_GT(r.clb_util, 0.0);
  EXPECT_LE(r.clb_util, 1.0);
  EXPECT_GE(r.uram_util, 0.0);
  EXPECT_LE(r.uram_util, 1.0);
  EXPECT_EQ(r.is_umm, false);
}

TEST(Report, LutSurrogateGrowsWithBuffers) {
  auto g = models::build_resnet(152);
  LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto umm = compiler.compile_umm(g);
  const auto plan = compiler.compile(g);
  EXPECT_GT(estimate_luts(plan), estimate_luts(umm));
}

}  // namespace
}  // namespace lcmm::sim
