// DSP-packing ablation (8-bit): the paper's baseline [18] runs one MAC per
// DSP (its quoted 2.7 Tops VU9P peak). Packing two int8 MACs into each
// DSP48E2 doubles the peak — and doubles the bandwidth pressure, pushing
// more layers into the memory-bound regime where LCMM's gains grow. This
// bench quantifies that interaction, plus the steady-state streaming
// throughput where prefetch warm-up disappears.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "ablation_packing");
  util::Table table({"net", "packing", "UMM Tops", "LCMM Tops", "speedup",
                     "mem-bound layers", "steady img/s (LCMM)"});
  for (const auto& [label, model_name] : bench::kSuite) {
    const auto graph = models::build_by_name(model_name);
    for (bool packing : {false, true}) {
      core::LcmmOptions options;
      options.dse.allow_int8_packing = packing;
      const driver::BatchOutcome r =
          bench::run_pair(graph, hw::Precision::kInt8, options);
      hw::PerfModel model(graph, r.umm_plan.design);
      const auto roofline = characterize_roofline(model);
      const auto stream = sim::simulate_stream(graph, r.lcmm_plan, 4);
      table.add_row({label, packing ? "2 MAC/DSP" : "1 MAC/DSP",
                     util::fmt_fixed(r.umm_report.tops, 3),
                     util::fmt_fixed(r.lcmm_report.tops, 3),
                     util::fmt_fixed(r.speedup(), 2),
                     std::to_string(roofline.num_memory_bound) + "/" +
                         std::to_string(roofline.points.size()),
                     util::fmt_fixed(1.0 / stream.steady_image_s, 1)});
      const bench::Dims dims{{"net", label},
                             {"precision", "int8"},
                             {"packing", packing ? "2" : "1"}};
      harness.add("lcmm_tops", r.lcmm_report.tops, "Tops",
                  bench::Direction::kHigherIsBetter, dims);
      harness.add("speedup", r.speedup(), "x",
                  bench::Direction::kHigherIsBetter, dims);
      harness.add("memory_bound_layers", roofline.num_memory_bound, "count",
                  bench::Direction::kLowerIsBetter, dims);
      harness.add("steady_images_per_s", 1.0 / stream.steady_image_s, "img/s",
                  bench::Direction::kHigherIsBetter, dims);
    }
    table.add_separator();
  }
  std::cout << "DSP packing ablation (8-bit)\n"
            << table
            << "Packing doubles peak compute but not bandwidth: more layers "
               "go memory-bound and LCMM's advantage widens.\n";
  return harness.finish();
}
