// Ablation B: contribution of each LCMM pass — feature reuse, weight
// prefetching, buffer splitting, residency promotion and the refine DSE
// step — measured end-to-end on all three networks at 16-bit. The
// single-dse row keeps the seed design: the argmin at the heavy-URAM clock
// assuming uniform management, with no refine step.
#include <iostream>

#include "common.hpp"

namespace {

lcmm::core::LcmmOptions variant(const char* which) {
  lcmm::core::LcmmOptions opt;
  opt.allow_fallback_to_umm = false;
  const std::string v = which;
  if (v == "feature-only") opt.weight_prefetch = false;
  if (v == "prefetch-only") opt.feature_reuse = false;
  if (v == "no-splitting") opt.buffer_splitting = false;
  if (v == "no-promotion") opt.residency_promotion = false;
  // Tight-capacity variants: restrict R_sram to ~10% of the SRAM so shared
  // buffers actually spill — the regime where splitting (§3.4) matters.
  if (v == "tight") opt.sram_capacity_fraction = 0.10;
  if (v == "tight-no-split") {
    opt.sram_capacity_fraction = 0.10;
    opt.buffer_splitting = false;
  }
  return opt;
}

/// The stall-refined LCMM plan under the seed design (the UMM-optimal
/// design at the heavy-URAM clock), with no refine DSE step and no
/// fallback.
lcmm::sim::DesignReport seed_design_report(
    const lcmm::graph::ComputationGraph& graph, lcmm::hw::Precision precision) {
  using namespace lcmm;
  const hw::FpgaDevice device = hw::FpgaDevice::vu9p();
  const hw::AcceleratorDesign seed =
      hw::Dse(device, precision, {.heavy_uram_use = true}).explore(graph).design;
  const core::AllocationPlan plan =
      core::LcmmCompiler(device, precision).compile_with_design(graph, seed);
  return sim::make_report(graph, plan, sim::simulate(graph, plan));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "ablation_passes");
  static const char* kVariants[] = {"full",          "feature-only",
                                    "prefetch-only", "no-splitting",
                                    "no-promotion",  "single-dse",
                                    "tight",         "tight-no-split"};
  util::Table table({"net", "variant", "latency (ms)", "Tops",
                     "speedup vs UMM", "URAM %", "stall (ms)"});
  for (const auto& [label, model_name] : bench::kSuite) {
    const auto graph = models::build_by_name(model_name);
    // No variant option reaches the UMM baseline: compile it once per net.
    const double umm_ms =
        bench::run_job({.graph = graph,
                        .precision = hw::Precision::kInt16,
                        .want_lcmm = false})
            .umm_report.latency_ms;
    for (const char* v : kVariants) {
      const sim::DesignReport lcmm =
          std::string(v) == "single-dse"
              ? seed_design_report(graph, hw::Precision::kInt16)
              : bench::run_job({.graph = graph,
                                .precision = hw::Precision::kInt16,
                                .options = variant(v),
                                .want_umm = false})
                    .lcmm_report;
      table.add_row({label, v, util::fmt_fixed(lcmm.latency_ms, 3),
                     util::fmt_fixed(lcmm.tops, 3),
                     util::fmt_fixed(umm_ms / lcmm.latency_ms, 2),
                     util::fmt_pct(lcmm.uram_util),
                     util::fmt_fixed(lcmm.total_stall_ms, 3)});
      const bench::Dims dims{
          {"net", label}, {"precision", "int16"}, {"variant", v}};
      harness.add("latency_ms", lcmm.latency_ms, "ms",
                  bench::Direction::kLowerIsBetter, dims);
      harness.add("speedup", umm_ms / lcmm.latency_ms, "x",
                  bench::Direction::kHigherIsBetter, dims);
      harness.add("stall_ms", lcmm.total_stall_ms, "ms",
                  bench::Direction::kLowerIsBetter, dims);
    }
    table.add_row({label, "UMM baseline", util::fmt_fixed(umm_ms, 3), "", "1.00",
                   "0", "0"});
    table.add_separator();
  }
  std::cout << "Ablation B: per-pass contribution (16-bit)\n" << table;
  return harness.finish();
}
