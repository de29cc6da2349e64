// Batch compilation driver: the models x designs x precisions sweep the
// paper's evaluation (§4) runs, as one concurrent entry point.
//
// Each BatchJob owns its graph and options, so jobs share no mutable
// state; compile_many() fans them out with par::parallel_map and returns
// outcomes in input order. Each job runs once, on one worker thread. A job
// that throws reports a structured error (code, failing pass, job label)
// in BatchOutcome instead of tearing down the whole sweep (the compiler
// itself ships the UMM floor when its pipeline fails). When the calling
// thread is collecting obs telemetry, per-job stats merge back in job
// order — the collected registry is identical whatever the worker count
// (see docs/parallelism.md).
#pragma once

#include <string>
#include <vector>

#include "core/lcmm.hpp"
#include "resil/error.hpp"
#include "sim/report.hpp"
#include "sim/timeline.hpp"

namespace lcmm::driver {

/// One (graph, device, precision, options) compilation unit.
struct BatchJob {
  graph::ComputationGraph graph;
  hw::FpgaDevice device = hw::FpgaDevice::vu9p();
  hw::Precision precision = hw::Precision::kInt16;
  core::LcmmOptions options{};
  /// Which designs to produce. With both, one LcmmCompiler::compile call
  /// yields both plans and their simulations: the UMM plan is the baseline
  /// it compiled and simulated anyway. UMM alone is compile_umm plus one
  /// simulate.
  bool want_umm = true;
  bool want_lcmm = true;
  /// Label echoed in BatchOutcome and error reports ("resnet50/int8");
  /// defaults to the graph name when empty.
  std::string label{};
};

struct BatchOutcome {
  core::AllocationPlan umm_plan;   ///< Valid when the job wanted UMM.
  core::AllocationPlan lcmm_plan;  ///< Valid when the job wanted LCMM.
  sim::SimResult umm_sim;
  sim::SimResult lcmm_sim;
  sim::DesignReport umm_report;
  sim::DesignReport lcmm_report;
  std::string label;        ///< BatchJob::label (or the graph name).
  std::string error;        ///< Non-empty when the job failed; plan fields empty.
  resil::ErrorInfo error_info;  ///< Structured error (code, pass, entity).
  int attempts = 0;         ///< Always 1: a job runs once.

  bool ok() const { return error.empty(); }
  /// UMM/LCMM latency ratio (requires both designs).
  double speedup() const {
    return lcmm_report.latency_ms > 0
               ? umm_report.latency_ms / lcmm_report.latency_ms
               : 0.0;
  }
};

/// Compiles every job on up to `workers` threads (0 = par::default_jobs())
/// and reports each plan from the simulation its compile ran; no plan is
/// simulated twice. Outcomes are in job order and independent of the
/// worker count.
std::vector<BatchOutcome> compile_many(const std::vector<BatchJob>& jobs,
                                       int workers = 0);

}  // namespace lcmm::driver
