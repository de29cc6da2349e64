// Shared harness glue for the paper-reproduction benches: compiles the UMM
// baseline and the LCMM plan for a (network, precision) pair through
// driver::compile_many, simulates both, and returns the outcome whose
// report rows the tables print. Every bench also links lcmm::bench
// (src/bench/bench.hpp): construct a Harness from argv, register the
// table's numbers as metrics, and `return harness.finish()` so
// `--json=<path>` emits the machine-readable run the CI bench gate diffs
// against bench/baselines/ (docs/benchmarking.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench/bench.hpp"
#include "lcmm.hpp"

namespace lcmm::bench {

/// Compiles and simulates one job through the batch driver, exactly as
/// lcmm_compile ships it. A failed job prints its code and pass and exits
/// non-zero, so a bench never reports numbers from an empty plan.
inline driver::BatchOutcome run_job(const driver::BatchJob& job) {
  driver::BatchOutcome out = std::move(driver::compile_many({job}).front());
  if (!out.ok()) {
    std::fprintf(stderr, "bench compile of %s failed: %s in %s: %s\n",
                 out.label.c_str(),
                 resil::code_id(out.error_info.code).c_str(),
                 out.error_info.pass.c_str(), out.error_info.message.c_str());
    std::exit(1);
  }
  return out;
}

/// Both designs of one (network, precision) pair on VU9P.
inline driver::BatchOutcome run_pair(const graph::ComputationGraph& graph,
                                     hw::Precision precision,
                                     const core::LcmmOptions& options = {}) {
  return run_job({.graph = graph, .precision = precision, .options = options});
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
                             const driver::BatchOutcome& r) {
  add_pair_metrics(run, dims, r.umm_report, r.lcmm_report);
}

}  // namespace lcmm::bench
