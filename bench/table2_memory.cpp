// Reproduces Table 2: on-chip memory utilization — BRAM %, URAM % and POL
// (the percentage of memory-bound layers that benefit from LCMM) for every
// (network, precision) pair, plus the tensor-buffer census the paper
// describes for ResNet-152 ("14 buffers ... 9 of them consuming 32 URAM
// blocks").
#include <algorithm>
#include <iostream>
#include <map>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "table2_memory");
  util::Table table({"Design", "Net", "BRAM %", "URAM %", "POL %",
                     "Tensor buffers", "Tensor bytes"});
  std::map<std::string, driver::BatchOutcome> kept;
  for (hw::Precision p : hw::kAllPrecisions) {
    for (const auto& [label, model_name] : bench::kSuite) {
      const auto graph = models::build_by_name(model_name);
      driver::BatchOutcome r = bench::run_pair(graph, p);
      const sim::DesignReport& umm = r.umm_report;
      const sim::DesignReport& lcmm = r.lcmm_report;
      const bench::Dims dims{{"net", label}, {"precision", hw::to_string(p)}};
      harness.add("bram_util", lcmm.bram_util, "frac",
                  bench::Direction::kLowerIsBetter, dims);
      harness.add("uram_util", lcmm.uram_util, "frac",
                  bench::Direction::kLowerIsBetter, dims);
      harness.add("pol", lcmm.pol, "frac",
                  bench::Direction::kHigherIsBetter, dims);
      harness.add("tensor_buffers", lcmm.num_on_chip_buffers, "count",
                  bench::Direction::kHigherIsBetter, dims);
      harness.add("tensor_buffer_bytes",
                  static_cast<double>(lcmm.tensor_buffer_bytes), "bytes",
                  bench::Direction::kHigherIsBetter, dims);
      table.add_row({std::string("UMM ") + hw::to_string(p), label,
                     util::fmt_pct(umm.bram_util), util::fmt_pct(umm.uram_util),
                     "-", "0", "0"});
      table.add_row({std::string("LCMM ") + hw::to_string(p), label,
                     util::fmt_pct(lcmm.bram_util),
                     util::fmt_pct(lcmm.uram_util), util::fmt_pct(lcmm.pol),
                     std::to_string(lcmm.num_on_chip_buffers),
                     util::fmt_mebibytes(static_cast<double>(
                         lcmm.tensor_buffer_bytes))});
      if (label == std::string("RN") && p == hw::Precision::kInt8) {
        kept.emplace("RN8", std::move(r));
      }
    }
    table.add_separator();
  }
  std::cout << "Table 2: On-chip memory utilization\n" << table;

  // Buffer census for ResNet-152 8-bit, mirroring the paper's prose.
  const auto it = kept.find("RN8");
  if (it != kept.end()) {
    std::map<int, int> by_blocks;
    int uram_buffers = 0;
    for (const core::PhysicalBuffer& b : it->second.lcmm_plan.physical) {
      if (b.sram.pool == mem::SramPool::kUram) {
        ++by_blocks[b.sram.blocks];
        ++uram_buffers;
      }
    }
    harness.add("uram_census_buffers", uram_buffers, "count",
                bench::Direction::kHigherIsBetter,
                {{"net", "RN"}, {"precision", "int8"}});
    std::cout << "\nResNet-152 8-bit URAM tensor-buffer census "
                 "(blocks-per-buffer: count):\n";
    for (const auto& [blocks, count] : by_blocks) {
      std::cout << "  " << blocks << " URAM blocks: " << count << " buffer"
                << (count > 1 ? "s" : "") << "\n";
    }
  }
  return harness.finish();
}
