// Energy extension: UMM vs LCMM per-image energy across the suite at
// 16-bit. LCMM's DRAM-traffic elimination is also an energy optimization —
// DRAM bytes cost ~100x SRAM bytes. (Not part of the paper's evaluation;
// constants documented in sim/energy.hpp.)
#include <iostream>

#include "common.hpp"
#include "sim/energy.hpp"

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "ablation_energy");
  util::Table table({"net", "design", "DRAM (MB/img)", "DRAM (mJ)",
                     "SRAM (mJ)", "compute (mJ)", "static (mJ)", "total (mJ)",
                     "Gops/J", "energy saving"});
  for (const auto& [label, model_name] : bench::kSuite) {
    const auto graph = models::build_by_name(model_name);
    const driver::BatchOutcome r =
        bench::run_pair(graph, hw::Precision::kInt16);
    const double ops = 2.0 * static_cast<double>(graph.total_macs());
    const sim::EnergyReport umm =
        estimate_energy(graph, r.umm_plan, r.umm_sim);
    const sim::EnergyReport lcmm =
        estimate_energy(graph, r.lcmm_plan, r.lcmm_sim);
    for (const auto& [name, e] :
         {std::pair{"UMM", &umm}, std::pair{"LCMM", &lcmm}}) {
      const bench::Dims dims{{"net", label},
                             {"precision", "int16"},
                             {"design", e == &umm ? "umm" : "lcmm"}};
      harness.add("dram_bytes", e->dram_bytes, "bytes",
                  bench::Direction::kLowerIsBetter, dims);
      harness.add("total_mj", e->total_mj(), "mJ",
                  bench::Direction::kLowerIsBetter, dims);
      harness.add("gops_per_joule", e->gops_per_joule(ops), "Gops/J",
                  bench::Direction::kHigherIsBetter, dims);
      table.add_row(
          {label, name, util::fmt_fixed(e->dram_bytes / (1 << 20), 1),
           util::fmt_fixed(e->dram_mj, 2), util::fmt_fixed(e->sram_mj, 2),
           util::fmt_fixed(e->compute_mj, 2), util::fmt_fixed(e->static_mj, 2),
           util::fmt_fixed(e->total_mj(), 2),
           util::fmt_fixed(e->gops_per_joule(ops), 1),
           e == &lcmm
               ? util::fmt_pct(1.0 - lcmm.total_mj() / umm.total_mj()) + "%"
               : ""});
    }
    harness.add("energy_saving", 1.0 - lcmm.total_mj() / umm.total_mj(),
                "frac", bench::Direction::kHigherIsBetter,
                {{"net", label}, {"precision", "int16"}});
    table.add_separator();
  }
  std::cout << "Energy extension: per-image energy (16-bit)\n" << table;
  return harness.finish();
}
