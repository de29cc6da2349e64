// Reproduces Table 1: UMM vs LCMM for ResNet-152 / GoogLeNet / Inception-v4
// at 8/16/32-bit — latency, throughput, clock, resource utilization, and
// the per-pair speedup. The paper reports a 1.36x average speedup.
//
// The nine (network, precision) pairs compile concurrently through
// driver::compile_many; rows print in suite order and are identical for
// every worker count (LCMM_JOBS=1 to force serial).
#include <cmath>
#include <iostream>
#include <vector>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "table1_main");

  std::vector<driver::BatchJob> jobs;
  std::vector<std::string> labels;
  std::vector<bench::Dims> dims;
  for (const auto& [label, model_name] : bench::kSuite) {
    for (hw::Precision p : hw::kAllPrecisions) {
      jobs.push_back({.graph = models::build_by_name(model_name),
                      .device = hw::FpgaDevice::vu9p(),
                      .precision = p});
      labels.push_back(std::string(label) + " " + hw::to_string(p));
      dims.push_back({{"net", label}, {"precision", hw::to_string(p)}});
    }
  }
  const std::vector<driver::BatchOutcome> outcomes = driver::compile_many(
      jobs, par::jobs_from_env_or(par::hardware_jobs()));

  util::Table table({"Benchmark", "Design", "Latency (ms)", "Tops",
                     "Freq (MHz)", "DSP %", "CLB %", "SRAM %", "Speedup"});
  double log_sum = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const driver::BatchOutcome& r = outcomes[i];
    if (!r.ok()) {
      std::cerr << "bench job failed (" << labels[i] << "): " << r.error
                << "\n";
      return 1;
    }
    table.add_separator();
    for (const sim::DesignReport* d : {&r.umm_report, &r.lcmm_report}) {
      table.add_row({labels[i], d->is_umm ? "UMM" : "LCMM",
                     util::fmt_fixed(d->latency_ms, 3),
                     util::fmt_fixed(d->tops, 3),
                     util::fmt_fixed(d->freq_mhz, 0), util::fmt_pct(d->dsp_util),
                     util::fmt_pct(d->clb_util), util::fmt_pct(d->sram_util),
                     d->is_umm ? "" : util::fmt_fixed(r.speedup(), 2)});
    }
    bench::add_pair_metrics(harness.run(), dims[i], r.umm_report,
                            r.lcmm_report);
    log_sum += std::log(r.speedup());
    ++pairs;
  }
  const double geomean = std::exp(log_sum / pairs);
  harness.add("geomean_speedup", geomean, "x",
              bench::Direction::kHigherIsBetter);
  std::cout << "Table 1: Detailed results (UMM vs LCMM on Xilinx VU9P)\n"
            << table
            << "Average (geomean) speedup: " << util::fmt_fixed(geomean, 2)
            << "x   (paper reports 1.36x)\n";
  return harness.finish();
}
