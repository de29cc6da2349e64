// Reproduces Fig. 3: memory footprints of uniform vs layer-conscious
// memory management on the six-convolution inception_c1 snippet — which
// tensors live in off-chip buffers vs persistent on-chip tensor buffers,
// over the execution timeline.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "fig3_footprint");
  const auto graph = models::build_inception_c1_snippet();
  core::LcmmOptions options;
  options.liveness.include_compute_bound = true;  // the snippet is small
  options.allow_fallback_to_umm = false;
  // 16-bit: the snippet's 8x8 convolutions are decisively memory bound.
  const driver::BatchOutcome r =
      bench::run_pair(graph, hw::Precision::kInt16, options);

  std::cout << "Fig. 3: memory footprint on the inception_c1 snippet "
               "(6 convolutions)\n\n";
  std::cout << "(b) Uniform memory management — every tensor off-chip:\n";
  // Same tensors, all resident in DRAM: reuse the LCMM entity view with an
  // all-off on-chip state.
  core::AllocationPlan umm_view = r.lcmm_plan;
  umm_view.is_umm = true;
  umm_view.state = core::OnChipState(graph.num_layers());
  umm_view.buffer_on_chip.assign(umm_view.buffer_on_chip.size(), false);
  umm_view.resident_weights.clear();
  const sim::MemoryTrace umm_trace =
      build_memory_trace(graph, umm_view, sim::simulate(graph, umm_view));
  std::cout << umm_trace.ascii_gantt(40, 48) << "\n";

  std::cout << "(c) Layer conscious memory management ('#' = on-chip tensor "
               "buffer, '.' = off-chip):\n";
  const sim::MemoryTrace lcmm_trace =
      build_memory_trace(graph, r.lcmm_plan, r.lcmm_sim);
  std::cout << lcmm_trace.ascii_gantt(40, 48) << "\n";

  int on = 0;
  for (const auto& rec : lcmm_trace.records) on += rec.on_chip;
  std::cout << "tensors moved on-chip: " << on << " / "
            << lcmm_trace.records.size() << "\n"
            << "virtual buffers: " << r.lcmm_plan.buffers.size()
            << " (over " << r.lcmm_plan.entities.size() << " tensors)\n"
            << "snippet latency: "
            << util::fmt_fixed(r.umm_report.latency_ms, 3)
            << " ms (UMM) -> " << util::fmt_fixed(r.lcmm_report.latency_ms, 3)
            << " ms (LCMM), speedup " << util::fmt_fixed(r.speedup(), 2)
            << "x\n";
  const bench::Dims dims{{"net", "inception_c1"}, {"precision", "int16"}};
  bench::add_pair_metrics(harness.run(), dims, r);
  harness.add("tensors_on_chip", on, "count",
              bench::Direction::kHigherIsBetter, dims);
  harness.add("virtual_buffers", static_cast<double>(r.lcmm_plan.buffers.size()),
              "count", bench::Direction::kLowerIsBetter, dims);
  return harness.finish();
}
