// Reproduces Table 3: comparison with the state-of-the-art end-to-end
// designs — Cloud-DNN [3] on ResNet-50 and TGPA [17] on ResNet-152, both
// 16-bit on the VU9P. The published numbers are embedded as reference rows
// (the paper compares against publications, not reruns); our rows come from
// the simulator.
#include <iostream>

#include "common.hpp"

namespace {

struct Published {
  const char* design;
  const char* model;
  double freq_mhz;
  int dsp;
  double bram_mb;
  double uram_mb;
  double logic_k;
  double tops;
  double latency_ms;
};

// Rows as printed in the paper's Table 3.
constexpr Published kPublished[] = {
    {"Cloud-DNN [3] (published)", "resnet50", 214, 5489, 7.20, 27.68, 728, 1.235, 8.12},
    {"TGPA [17] (published)", "resnet152", 200, 4096, 6.45, 19.56, 506, 1.463, 17.34},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "table3_sota");
  util::Table table({"Design", "DNN model", "Freq (MHz)", "DSP", "BRAM (MB)",
                     "URAM (MB)", "Logic (K)", "Tops", "Latency/Image (ms)",
                     "Perf. density (ops/DSP/cycle)"});
  for (const Published& p : kPublished) {
    const double density =
        p.tops * 1e12 / (p.dsp * p.freq_mhz * 1e6);
    table.add_row({p.design, p.model, util::fmt_fixed(p.freq_mhz, 0),
                   std::to_string(p.dsp), util::fmt_fixed(p.bram_mb, 2),
                   util::fmt_fixed(p.uram_mb, 2), util::fmt_fixed(p.logic_k, 0),
                   util::fmt_fixed(p.tops, 3), util::fmt_fixed(p.latency_ms, 2),
                   util::fmt_fixed(density, 2)});
    const auto graph = models::build_by_name(p.model);
    const driver::BatchOutcome r =
        bench::run_pair(graph, hw::Precision::kInt16);
    const auto& ours = r.lcmm_report;
    const auto& plan = r.lcmm_plan;
    const int dsp = plan.design.array.dsp_cost(plan.design.precision);
    const double bram_mb = static_cast<double>(plan.bram_used) *
                           mem::SramPools::kBram36Bytes / (1024.0 * 1024.0);
    const double uram_mb = static_cast<double>(plan.uram_used) *
                           mem::SramPools::kUramBytes / (1024.0 * 1024.0);
    const double our_density = ours.tops * 1e12 / (dsp * ours.freq_mhz * 1e6);
    table.add_row({"LCMM (ours, simulated)", p.model,
                   util::fmt_fixed(ours.freq_mhz, 0), std::to_string(dsp),
                   util::fmt_fixed(bram_mb, 2), util::fmt_fixed(uram_mb, 2),
                   util::fmt_fixed(sim::estimate_luts(plan) / 1000.0, 0),
                   util::fmt_fixed(ours.tops, 3),
                   util::fmt_fixed(ours.latency_ms, 2),
                   util::fmt_fixed(our_density, 2)});
    table.add_separator();
    const bench::Dims dims{{"net", p.model}, {"precision", "int16"}};
    harness.add("latency_ms", ours.latency_ms, "ms",
                bench::Direction::kLowerIsBetter, dims);
    harness.add("tops", ours.tops, "Tops", bench::Direction::kHigherIsBetter,
                dims);
    harness.add("perf_density", our_density, "ops/DSP/cycle",
                bench::Direction::kHigherIsBetter, dims);
    harness.add("bram_mb", bram_mb, "MB", bench::Direction::kLowerIsBetter,
                dims);
    harness.add("uram_mb", uram_mb, "MB", bench::Direction::kLowerIsBetter,
                dims);
  }
  std::cout << "Table 3: Comparison with state-of-the-art designs "
               "(16-bit fixed point, Xilinx VU9P)\n"
            << table
            << "Note: published rows are the papers' reported numbers; ours "
               "come from the analytical simulator, so compare shapes, not "
               "absolutes.\n";
  return harness.finish();
}
