// Reproduces Fig. 8: per-inception-block analysis of 16-bit GoogLeNet —
// (a) feature buffer reuse only, (b) weight buffer prefetching only,
// (c) the full LCMM integration, each against the UMM baseline. The paper's
// observation: feature reuse helps the early blocks (large feature maps),
// prefetching helps the late blocks (weight-dominated), and only the
// combination wins across the whole network.
#include <iostream>
#include <map>

#include "common.hpp"

namespace {

/// Per-stage attained Tops for a simulated plan.
std::map<std::string, double> per_stage_tops(
    const lcmm::graph::ComputationGraph& graph, const lcmm::sim::SimResult& sim) {
  std::map<std::string, double> seconds, macs;
  for (const auto& exec : sim.layers) {
    const auto& layer = graph.layer(exec.layer);
    seconds[layer.stage] += exec.latency_s() + exec.stall_s;
    macs[layer.stage] += static_cast<double>(graph.layer_macs(exec.layer));
  }
  std::map<std::string, double> tops;
  for (const auto& [stage, s] : seconds) {
    tops[stage] = s > 0 ? 2.0 * macs[stage] / s / 1e12 : 0.0;
  }
  return tops;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "fig8_googlenet_breakdown");
  const auto graph = models::build_googlenet();

  core::LcmmOptions feature_only;
  feature_only.weight_prefetch = false;
  feature_only.allow_fallback_to_umm = false;
  core::LcmmOptions prefetch_only;
  prefetch_only.feature_reuse = false;
  prefetch_only.allow_fallback_to_umm = false;
  core::LcmmOptions full;
  full.allow_fallback_to_umm = false;

  const auto base = bench::run_pair(graph, hw::Precision::kInt16, full);
  const auto fr = bench::run_pair(graph, hw::Precision::kInt16, feature_only);
  const auto wp = bench::run_pair(graph, hw::Precision::kInt16, prefetch_only);

  const auto umm_tops = per_stage_tops(graph, base.umm_sim);
  const auto fr_tops = per_stage_tops(graph, fr.lcmm_sim);
  const auto wp_tops = per_stage_tops(graph, wp.lcmm_sim);
  const auto full_tops = per_stage_tops(graph, base.lcmm_sim);

  util::Table table({"block", "UMM Tops", "(a) feature reuse",
                     "(b) weight prefetch", "(c) full LCMM"});
  for (const std::string& stage : graph.stages()) {
    if (stage.rfind("inception_", 0) != 0) continue;
    table.add_row({stage, util::fmt_fixed(umm_tops.at(stage), 3),
                   util::fmt_fixed(fr_tops.at(stage), 3),
                   util::fmt_fixed(wp_tops.at(stage), 3),
                   util::fmt_fixed(full_tops.at(stage), 3)});
  }
  std::cout << "Fig. 8: GoogLeNet 16-bit, per-inception-block performance\n"
            << table;

  std::cout << "end-to-end: UMM "
            << util::fmt_fixed(base.umm_report.latency_ms, 3)
            << " ms | feature-only "
            << util::fmt_fixed(fr.lcmm_report.latency_ms, 3)
            << " ms | prefetch-only "
            << util::fmt_fixed(wp.lcmm_report.latency_ms, 3) << " ms | full "
            << util::fmt_fixed(base.lcmm_report.latency_ms, 3) << " ms ("
            << util::fmt_fixed(base.speedup(), 2) << "x)\n";
  auto add_variant = [&](const char* variant, double latency_ms) {
    harness.add("latency_ms", latency_ms, "ms",
                bench::Direction::kLowerIsBetter,
                {{"net", "GN"}, {"precision", "int16"}, {"variant", variant}});
  };
  add_variant("umm", base.umm_report.latency_ms);
  add_variant("feature-only", fr.lcmm_report.latency_ms);
  add_variant("prefetch-only", wp.lcmm_report.latency_ms);
  add_variant("full", base.lcmm_report.latency_ms);
  harness.add("speedup", base.speedup(), "x",
              bench::Direction::kHigherIsBetter,
              {{"net", "GN"}, {"precision", "int16"}});
  return harness.finish();
}
