// End-to-end ResNet-152 deployment study: sweep the three precisions the
// paper evaluates, print the chosen accelerator design, the per-stage
// latency breakdown, and where LCMM removes DRAM traffic.
#include <iostream>
#include <map>

#include "lcmm.hpp"

int main() {
  using namespace lcmm;
  graph::ComputationGraph net = models::build_resnet(152);

  for (hw::Precision p : hw::kAllPrecisions) {
    core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), p);
    core::AllocationPlan umm;
    core::AllocationPlan plan = compiler.compile(net, &umm);
    sim::SimResult usim = sim::simulate(net, umm);
    sim::SimResult lsim = sim::simulate(net, plan);

    std::cout << "=== ResNet-152 @ " << hw::to_string(p) << " ===\n"
              << "UMM  " << util::fmt_fixed(usim.total_s * 1e3, 2)
              << " ms (array " << umm.design.array.to_string() << " @ "
              << umm.design.freq_mhz << " MHz)\n"
              << "LCMM " << util::fmt_fixed(lsim.total_s * 1e3, 2)
              << " ms (array " << plan.design.array.to_string() << " @ "
              << plan.design.freq_mhz << " MHz)  speedup "
              << util::fmt_fixed(usim.total_s / lsim.total_s, 2) << "x\n";

    // Coarse stage breakdown (conv1, res2..res5, head).
    std::map<std::string, double> umm_ms, lcmm_ms;
    auto stage_of = [&](graph::LayerId id) {
      const std::string& s = net.layer(id).stage;
      return s.size() >= 4 && s.rfind("res", 0) == 0 ? s.substr(0, 4) : s;
    };
    for (const auto& e : usim.layers) {
      umm_ms[stage_of(e.layer)] += (e.latency_s() + e.stall_s) * 1e3;
    }
    for (const auto& e : lsim.layers) {
      lcmm_ms[stage_of(e.layer)] += (e.latency_s() + e.stall_s) * 1e3;
    }
    util::Table table({"stage", "UMM (ms)", "LCMM (ms)", "speedup"});
    for (const auto& [stage, ms] : umm_ms) {
      table.add_row({stage, util::fmt_fixed(ms, 3),
                     util::fmt_fixed(lcmm_ms[stage], 3),
                     lcmm_ms[stage] > 0
                         ? util::fmt_fixed(ms / lcmm_ms[stage], 2)
                         : "-"});
    }
    std::cout << table << "\n";
  }
  return 0;
}
