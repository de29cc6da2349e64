// Reproduces Fig. 2(a): roofline characterization of Inception-v4 (8-bit)
// on the VU9P under uniform memory management — the per-layer (operation
// intensity, attainable performance) scatter, the memory-bound layer census
// (the paper finds 82 layers, 58% of the total), and the required-bandwidth
// tail ("over 60% of them even need 70 GB/s").
#include <algorithm>
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "fig2a_roofline");
  const auto graph = models::build_inception_v4();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  const core::AllocationPlan umm = compiler.compile_umm(graph);
  hw::PerfModel model(graph, umm.design);
  const hw::RooflineSummary summary = characterize_roofline(model);

  std::cout << "Fig. 2(a): Roofline of Inception-v4 (8-bit) on VU9P, UMM\n"
            << "peak " << util::fmt_fixed(summary.peak_ops_per_sec / 1e12, 2)
            << " Tops, per-stream bandwidth "
            << util::fmt_fixed(summary.stream_bw_peak / 1e9, 1)
            << " GB/s theoretical (" << mem::kDdrMaxEfficiency
            << " max efficiency)\n\n";

  // The scatter, as a CSV series (one point per conv layer).
  util::Table scatter({"layer", "ops/byte", "attainable Gops",
                       "needed GB/s (worst stream)", "needed GB/s (total)",
                       "bound"});
  for (const hw::RooflinePoint& pt : summary.points) {
    scatter.add_row({pt.name, util::fmt_fixed(pt.intensity_ops_per_byte, 1),
                     util::fmt_fixed(pt.attainable_ops_per_sec / 1e9, 1),
                     util::fmt_fixed(pt.required_stream_bw / 1e9, 1),
                     util::fmt_fixed(pt.required_total_bw / 1e9, 1),
                     pt.memory_bound ? "memory" : "compute"});
  }
  std::cout << scatter.to_csv();

  const int total = static_cast<int>(summary.points.size());
  std::cout << "\nmemory-bound layers: " << summary.num_memory_bound << " / "
            << total << " (" << util::fmt_pct(summary.memory_bound_fraction())
            << "%)   [paper: 82 / ~141 = 58%]\n";
  std::cout << "memory-bound layers needing > 70 GB/s on one stream: "
            << summary.num_above_threshold << " ("
            << util::fmt_pct(summary.num_memory_bound
                                 ? static_cast<double>(summary.num_above_threshold) /
                                       summary.num_memory_bound
                                 : 0.0)
            << "% of memory-bound)   [paper: over 60%]\n";

  // Distribution of the required aggregate bandwidth over memory-bound
  // layers.
  std::vector<double> needs;
  for (const auto& pt : summary.points) {
    if (pt.memory_bound) needs.push_back(pt.required_total_bw / 1e9);
  }
  std::sort(needs.begin(), needs.end());
  if (!needs.empty()) {
    auto q = [&](double f) {
      return needs[static_cast<std::size_t>(f * (needs.size() - 1))];
    };
    std::cout << "required-bandwidth quartiles over memory-bound layers: "
              << util::fmt_fixed(q(0.25), 1) << " / "
              << util::fmt_fixed(q(0.5), 1) << " / "
              << util::fmt_fixed(q(0.75), 1) << " GB/s (max "
              << util::fmt_fixed(needs.back(), 1) << ")\n";
    harness.add("median_required_gbps", q(0.5), "GB/s",
                bench::Direction::kLowerIsBetter);
  }
  const bench::Dims dims{{"net", "IN"}, {"precision", "int8"}};
  harness.add("memory_bound_layers", summary.num_memory_bound, "count",
              bench::Direction::kLowerIsBetter, dims);
  harness.add("conv_layers", total, "count",
              bench::Direction::kHigherIsBetter, dims);
  harness.add("layers_above_70gbps", summary.num_above_threshold, "count",
              bench::Direction::kLowerIsBetter, dims);
  harness.add("peak_tops", summary.peak_ops_per_sec / 1e12, "Tops",
              bench::Direction::kHigherIsBetter, dims);
  return harness.finish();
}
