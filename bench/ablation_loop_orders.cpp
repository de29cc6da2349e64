// Loop-order ablation: is LCMM just compensating for a rigid loop nest?
// We strengthen the UNIFORM baseline by letting every layer pick the
// fastest feasible loop order (output-/weight-/input-stationary) given an
// extra resident buffer, and re-measure LCMM on top. The answer the paper
// implies: smarter tiling shrinks the bottleneck but cannot remove it —
// tensor-granular on-chip allocation still wins on top of any loop order.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "ablation_loop_orders");
  util::Table table({"net", "stationary buffer", "UMM (ms)", "orders used",
                     "LCMM (ms)", "speedup"});
  for (const auto& [label, model_name] : bench::kSuite) {
    const auto graph = models::build_by_name(model_name);
    for (std::int64_t budget : {std::int64_t{0}, std::int64_t{1} << 20,
                                std::int64_t{4} << 20}) {
      core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
      core::AllocationPlan umm = compiler.compile_umm(graph);
      umm.design.stationary_buffer_bytes = budget;
      core::AllocationPlan plan = compiler.compile_with_design(graph, umm.design);
      const auto usim = sim::simulate(graph, umm);
      const auto lsim = sim::simulate(graph, plan);

      hw::PerfModel model(graph, umm.design);
      int os = 0, ws = 0, is = 0;
      for (const auto& l : graph.layers()) {
        if (!l.is_conv()) continue;
        switch (model.timing(l.id).order) {
          case hw::LoopOrder::kOutputStationary: ++os; break;
          case hw::LoopOrder::kWeightStationary: ++ws; break;
          case hw::LoopOrder::kInputStationary: ++is; break;
        }
      }
      table.add_row(
          {label,
           budget == 0 ? "none (paper baseline)"
                       : util::fmt_mebibytes(static_cast<double>(budget), 0),
           util::fmt_fixed(usim.total_s * 1e3, 3),
           "OS " + std::to_string(os) + " / WS " + std::to_string(ws) +
               " / IS " + std::to_string(is),
           util::fmt_fixed(lsim.total_s * 1e3, 3),
           util::fmt_fixed(usim.total_s / lsim.total_s, 2) + "x"});
      const bench::Dims dims{
          {"net", label},
          {"precision", "int16"},
          {"stationary_mb", std::to_string(budget >> 20)}};
      harness.add("umm_ms", usim.total_s * 1e3, "ms",
                  bench::Direction::kLowerIsBetter, dims);
      harness.add("lcmm_ms", lsim.total_s * 1e3, "ms",
                  bench::Direction::kLowerIsBetter, dims);
      harness.add("speedup", usim.total_s / lsim.total_s, "x",
                  bench::Direction::kHigherIsBetter, dims);
    }
    table.add_separator();
  }
  std::cout << "Loop-order ablation (16-bit): per-layer stationary variants "
               "vs LCMM\n"
            << table;
  return harness.finish();
}
