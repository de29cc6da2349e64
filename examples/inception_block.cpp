// Walk through the paper's running example (Fig. 3 / Fig. 5 / Fig. 6): the
// inception_c1 snippet. Shows the interference graph, the virtual-buffer
// mapping from coloring, the prefetching dependence graph, and the final
// footprint timeline.
#include <iostream>

#include "lcmm.hpp"

int main() {
  using namespace lcmm;
  graph::ComputationGraph net = models::build_inception_c1_snippet();
  std::cout << "=== computation graph (Fig. 3a) ===\n"
            << graph::to_dot(net) << "\n";

  core::LcmmOptions options;
  options.liveness.include_compute_bound = true;
  options.allow_fallback_to_umm = false;
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8,
                              options);
  core::AllocationPlan plan = compiler.compile(net);

  // Fig. 5(a): liveness intervals and interference.
  std::cout << "=== tensor entities and lifespans (Fig. 5a) ===\n";
  for (const core::TensorEntity& e : plan.entities) {
    std::cout << "  " << core::tensor_name(net, e.key) << "  bytes=" << e.bytes << "  live=["
              << e.def_step << ", " << e.last_use_step << "]\n";
  }

  // Fig. 5(b): virtual buffers from coloring.
  std::cout << "\n=== virtual buffers (Fig. 5b) ===\n";
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    const core::VirtualBuffer& buf = plan.buffers[b];
    std::cout << "  vbuf" << buf.id << " ("
              << util::fmt_mebibytes(static_cast<double>(buf.bytes)) << ", "
              << (plan.buffer_on_chip[b] ? "on-chip" : "spilled") << "):";
    for (std::size_t e : buf.members) {
      std::cout << " " << core::tensor_name(net, plan.entities[e].key);
    }
    std::cout << "\n";
  }

  // Fig. 6: prefetch edges.
  std::cout << "\n=== prefetching dependence graph (Fig. 6) ===\n";
  for (const core::PrefetchEdge& e : plan.prefetch.edges()) {
    std::cout << "  prefetch " << net.layer(e.target).name << ".wt from step "
              << e.start_step << " (load "
              << util::fmt_fixed(e.load_seconds * 1e6, 1) << " us, window "
              << util::fmt_fixed(e.window_seconds * 1e6, 1) << " us, "
              << (e.fully_hidden() ? "hidden" : "NOT hidden") << ")\n";
  }

  // Fig. 3(c): the timeline.
  sim::SimResult sim_result = sim::simulate(net, plan);
  const sim::MemoryTrace trace = build_memory_trace(net, plan, sim_result);
  std::cout << "\n=== footprint timeline (Fig. 3c; '#'=on-chip) ===\n"
            << trace.ascii_gantt(32, 48);
  std::cout << "\nsnippet latency: "
            << util::fmt_fixed(sim_result.total_s * 1e6, 1) << " us\n";
  return 0;
}
