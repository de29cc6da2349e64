// Bring-your-own-network example: define a small detector-style backbone
// with the graph-builder API, explore devices/precisions, and decide
// whether LCMM pays off for it. Demonstrates everything a downstream user
// needs: graph construction (branches, residuals, concat), DSE, the
// compiler, the simulator and the roofline analysis.
#include <array>
#include <iostream>

#include "lcmm.hpp"

namespace {

lcmm::graph::ComputationGraph build_tiny_detector() {
  using namespace lcmm::graph;
  ComputationGraph g("tiny_detector");
  g.set_stage("backbone");
  ValueId x = g.add_input("image", {3, 256, 256});
  x = g.add_conv("stem", x, {32, 3, 3, 2, 1, 1});                 // 128x128
  x = g.add_conv("down1", x, {64, 3, 3, 2, 1, 1});                // 64x64
  // A residual unit.
  ValueId r = g.add_conv("res_a", x, {64, 3, 3, 1, 1, 1});
  x = g.add_conv("res_b", r, {64, 3, 3, 1, 1, 1}, /*residual=*/x);
  x = g.add_conv("down2", x, {128, 3, 3, 2, 1, 1});               // 32x32
  // An inception-ish multi-branch head.
  g.set_stage("neck");
  const ValueId b1 = g.add_conv("b1_1x1", x, {64, 1, 1, 1, 0, 0});
  ValueId b2 = g.add_conv("b2_reduce", x, {48, 1, 1, 1, 0, 0});
  b2 = g.add_conv("b2_3x3", b2, {64, 3, 3, 1, 1, 1});
  ValueId b3 = g.add_pool("b3_pool", x, {PoolType::kMax, 3, 1, 1});
  b3 = g.add_conv("b3_proj", b3, {64, 1, 1, 1, 0, 0});
  const std::array<ValueId, 3> parts{b1, b2, b3};
  x = g.add_concat("neck_out", parts);
  g.set_stage("head");
  x = g.add_conv("head_3x3", x, {128, 3, 3, 1, 1, 1});
  g.add_conv("boxes", x, {24, 1, 1, 1, 0, 0});
  g.validate();
  return g;
}

}  // namespace

int main() {
  using namespace lcmm;
  graph::ComputationGraph net = build_tiny_detector();
  std::cout << "network: " << net.name() << ", " << net.num_layers()
            << " layers, " << util::fmt_fixed(2.0 * net.total_macs() / 1e9, 2)
            << " Gops\n\n";

  for (const hw::FpgaDevice& device :
       {hw::FpgaDevice::vu9p(), hw::FpgaDevice::zu9eg()}) {
    for (hw::Precision p : {hw::Precision::kInt8, hw::Precision::kInt16}) {
      core::LcmmCompiler compiler(device, p);
      core::AllocationPlan umm;
      core::AllocationPlan plan = compiler.compile(net, &umm);
      const sim::SimResult usim = sim::simulate(net, umm);
      const sim::SimResult lsim = sim::simulate(net, plan);

      // How memory-bound is this network on this device at all?
      hw::PerfModel model(net, umm.design);
      const auto roofline = hw::characterize_roofline(model);

      std::cout << device.name << " @ " << hw::to_string(p) << ": "
                << roofline.num_memory_bound << "/" << roofline.points.size()
                << " conv layers memory-bound | UMM "
                << util::fmt_fixed(usim.total_s * 1e3, 3) << " ms -> LCMM "
                << util::fmt_fixed(lsim.total_s * 1e3, 3) << " ms ("
                << util::fmt_fixed(usim.total_s / lsim.total_s, 2)
                << "x, " << plan.physical.size() << " tensor buffers)\n";
    }
  }
  std::cout << "\nTip: graph::to_dot(net) renders the topology for graphviz.\n";
  return 0;
}
