// Result reporting: turns (graph, plan, simulation) into the quantities the
// paper's tables report — latency, throughput, clock, and resource
// utilization — so every bench prints from one consistent source.
//
// The CLB/LUT estimate is a documented surrogate (we do not run synthesis):
// a platform-shell base plus per-MAC datapath logic, per-buffer control
// logic and per-memory-block glue, with constants fitted to the paper's
// Tab. 1 utilization columns.
#pragma once

#include <string>

#include "core/lcmm.hpp"
#include "sim/timeline.hpp"
#include "util/json.hpp"

namespace lcmm::sim {

struct DesignReport {
  std::string network;
  hw::Precision precision = hw::Precision::kInt8;
  bool is_umm = false;
  /// Rung the plan shipped on ("full-lcmm", or "umm" when the pipeline
  /// failed and the UMM floor shipped) and why (empty when not degraded).
  std::string rung;
  std::string degrade_reason;

  double latency_ms = 0.0;
  double tops = 0.0;  // nominal ops / latency, in Tera-ops/s
  double freq_mhz = 0.0;

  double dsp_util = 0.0;
  double clb_util = 0.0;
  double sram_util = 0.0;  // byte-weighted BRAM+URAM (Tab. 1 column)
  double bram_util = 0.0;
  double uram_util = 0.0;
  double pol = 0.0;  // fraction of memory-bound conv layers benefiting

  double total_stall_ms = 0.0;
  int num_on_chip_buffers = 0;
  std::int64_t tensor_buffer_bytes = 0;
};

DesignReport make_report(const graph::ComputationGraph& graph,
                         const core::AllocationPlan& plan, const SimResult& sim);

/// LUT-count surrogate used for the CLB column.
std::int64_t estimate_luts(const core::AllocationPlan& plan);

/// Machine-readable forms (CLI --format=json).
util::Json report_to_json(const DesignReport& report);
/// Full plan detail: `report` (make_report of the same plan and sim), the
/// design point, buffers, residency and the per-layer timeline.
util::Json plan_to_json(const graph::ComputationGraph& graph,
                        const core::AllocationPlan& plan, const SimResult& sim,
                        const DesignReport& report);

}  // namespace lcmm::sim
