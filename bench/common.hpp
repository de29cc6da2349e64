// Shared harness glue for the paper-reproduction benches: compiles the UMM
// baseline and the LCMM plan for a (network, precision) pair, simulates
// both, and returns the report rows the tables print. Every bench also
// links lcmm::bench (src/bench/bench.hpp): construct a Harness from argv,
// register the table's numbers as metrics, and `return harness.finish()`
// so `--json=<path>` emits the machine-readable run the CI bench gate
// diffs against bench/baselines/ (docs/benchmarking.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench.hpp"
#include "lcmm.hpp"

namespace lcmm::bench {

struct PairResult {
  core::AllocationPlan umm_plan;
  core::AllocationPlan lcmm_plan;
  sim::SimResult umm_sim;
  sim::SimResult lcmm_sim;
  sim::DesignReport umm;
  sim::DesignReport lcmm;

  double speedup() const { return umm.latency_ms / lcmm.latency_ms; }
};

inline PairResult run_pair(const graph::ComputationGraph& graph,
                           hw::Precision precision,
                           const core::LcmmOptions& options = {}) {
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), precision, options);
  PairResult r;
  r.lcmm_plan = compiler.compile(graph, &r.umm_plan);
  r.umm_sim = sim::simulate(graph, r.umm_plan);
  r.umm = sim::make_report(graph, r.umm_plan, r.umm_sim);
  r.lcmm_sim = sim::refine_against_stalls(graph, r.lcmm_plan);
  r.lcmm = sim::make_report(graph, r.lcmm_plan, r.lcmm_sim);
  return r;
}

/// run_pair with compiler telemetry: collects pass spans and counters for
/// the whole pair compile (obs/obs.hpp) and copies them into `stats_out`,
/// so benches can assert the passes did the work they claim to measure.
inline PairResult run_pair_with_stats(const graph::ComputationGraph& graph,
                                      hw::Precision precision,
                                      obs::CompileStats& stats_out,
                                      const core::LcmmOptions& options = {}) {
  obs::StatsSession session;
  PairResult r = run_pair(graph, precision, options);
  stats_out = session.stats();
  return r;
}

/// Hard bench assertion on a compiler counter ("dnnk.dp_cells" or a bare
/// counter name, see CompileStats::counter). Exits non-zero on failure so
/// CI treats a silently-degenerate bench run as an error.
inline void expect_counter_at_least(const obs::CompileStats& stats,
                                    const std::string& name,
                                    std::int64_t min_value) {
  const std::int64_t value = stats.counter(name);
  if (value < min_value) {
    std::fprintf(stderr,
                 "bench counter check failed: %s = %lld, expected >= %lld\n",
                 name.c_str(), static_cast<long long>(value),
                 static_cast<long long>(min_value));
    std::exit(1);
  }
}

/// The paper's benchmark suite: (table label, model registry name).
inline const std::pair<const char*, const char*> kSuite[] = {
    {"RN", "resnet152"}, {"GN", "googlenet"}, {"IN", "inception_v4"}};

inline std::string precision_label(hw::Precision p) { return hw::to_string(p); }

/// Registers the standard UMM-vs-LCMM metric set for one (net, precision)
/// pair under `dims` — latency for both designs, the speedup, and the
/// LCMM buffer footprint. All model-kind, so the CI gate compares them.
inline void add_pair_metrics(BenchRun& run, const Dims& dims,
                             const sim::DesignReport& umm,
                             const sim::DesignReport& lcmm) {
  auto with_design = [&dims](const char* design) {
    Dims d = dims;
    d["design"] = design;
    return d;
  };
  run.add("latency_ms", umm.latency_ms, "ms", Direction::kLowerIsBetter,
          with_design("umm"));
  run.add("latency_ms", lcmm.latency_ms, "ms", Direction::kLowerIsBetter,
          with_design("lcmm"));
  run.add("speedup",
          lcmm.latency_ms > 0 ? umm.latency_ms / lcmm.latency_ms : 0.0, "x",
          Direction::kHigherIsBetter, dims);
  run.add("tops", lcmm.tops, "Tops", Direction::kHigherIsBetter, dims);
  run.add("tensor_buffers", lcmm.num_on_chip_buffers, "count",
          Direction::kHigherIsBetter, dims);
  run.add("tensor_buffer_bytes", static_cast<double>(lcmm.tensor_buffer_bytes),
          "bytes", Direction::kHigherIsBetter, dims);
}

inline void add_pair_metrics(BenchRun& run, const Dims& dims,
                             const PairResult& r) {
  add_pair_metrics(run, dims, r.umm, r.lcmm);
}

}  // namespace lcmm::bench
