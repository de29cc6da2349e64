// Quickstart: compile GoogLeNet for a VU9P at 16-bit, compare uniform
// memory management against LCMM, and print where the win comes from.
//
//   $ ./quickstart
#include <iostream>

#include "lcmm.hpp"

int main() {
  using namespace lcmm;

  // 1. Build (or bring your own) computation graph.
  graph::ComputationGraph net = models::build_googlenet();
  std::cout << "network: " << net.name() << " — " << net.num_conv_layers()
            << " conv layers, "
            << util::fmt_fixed(2.0 * net.total_macs() / 1e9, 2) << " Gops\n";

  // 2. Create a compiler for the target device and precision.
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);

  // 3. LCMM: feature reuse + weight prefetching + DNNK + splitting. The
  //    compile also hands back its baseline: uniform memory management
  //    (tile buffers only), as compiler.compile_umm(net) would build it.
  core::AllocationPlan umm;
  core::AllocationPlan plan = compiler.compile(net, &umm);
  sim::SimResult umm_sim = sim::simulate(net, umm);
  sim::SimResult lcmm_sim = sim::simulate(net, plan);

  std::cout << "accelerator: " << plan.design.array.to_string()
            << " PE array @ " << plan.design.freq_mhz << " MHz, tiles "
            << plan.design.tile.to_string() << "\n";
  std::cout << "UMM : " << util::fmt_fixed(umm_sim.total_s * 1e3, 3)
            << " ms/image\n";
  std::cout << "LCMM: " << util::fmt_fixed(lcmm_sim.total_s * 1e3, 3)
            << " ms/image  (speedup "
            << util::fmt_fixed(umm_sim.total_s / lcmm_sim.total_s, 2) << "x)\n";

  // 4. Inspect the plan.
  std::cout << "\non-chip tensor buffers: " << plan.physical.size() << " ("
            << util::fmt_mebibytes(static_cast<double>(plan.tensor_buffer_bytes))
            << "), URAM " << util::fmt_pct(plan.uram_utilization())
            << "%, BRAM " << util::fmt_pct(plan.bram_utilization()) << "%\n";
  std::cout << "memory-bound conv layers helped: "
            << plan.num_benefiting_conv << " / " << plan.num_memory_bound_conv
            << " (POL " << util::fmt_pct(plan.pol()) << "%)\n";
  std::cout << "persistent (resident) weight tensors: "
            << plan.resident_weights.size() << "\n";
  return 0;
}
