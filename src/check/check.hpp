// Static plan verification (lcmm::check): independently re-checks the
// compile-time claims an AllocationPlan rests on, instead of trusting the
// allocator's own bookkeeping.
//
// A registry of analysis passes each recomputes its ground truth from the
// computation graph and the performance model:
//   structure — plan/graph bookkeeping invariants (ownership, residency);
//   liveness  — re-derives def-use intervals (§3.1) and proves every shared
//               buffer's members pairwise disjoint;
//   prefetch  — PDG acyclicity and §3.2 backtrace-window feasibility
//               (window re-accumulated from UMM step latencies vs load T);
//   race      — DMA weight loads replayed against the simulated timeline;
//               flags any DMA write overlapping a compute access of a
//               co-resident tensor (double-buffer hazards);
//   capacity  — SRAM pool totals, physical placements and per-step live
//               bytes against the re-derived DNNK budget (§3.3);
//   dnnk      — Eq. 1 consistency of the recorded latencies and the
//               pivot-compensation gain of every granted tensor (§3.3).
//
// Passes report typed Diagnostics (check/diagnostics.hpp) with stable
// codes; emitters (check/emit.hpp) render them as text, JSON or SARIF.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "check/diagnostics.hpp"
#include "core/lcmm.hpp"
#include "sim/timeline.hpp"

namespace lcmm::check {

struct CheckOptions {
  /// Warnings gate the result too (see CheckReport::fails).
  bool strict = false;
  /// Mirrors LcmmOptions::sram_capacity_fraction — the checker re-derives
  /// the DNNK budget from it; pass the value the plan was compiled with.
  double sram_capacity_fraction = 0.90;
  /// DP quantization the capacity accounting replays (LcmmOptions::alloc).
  core::AllocatorOptions alloc;

  /// From LcmmOptions, so the checker knows which plan to expect.
  static CheckOptions from(const core::LcmmOptions& lcmm, bool strict = false) {
    CheckOptions o;
    o.strict = strict;
    o.sram_capacity_fraction = lcmm.sram_capacity_fraction;
    o.alloc = lcmm.alloc;
    return o;
  }
};

/// Everything a pass may read. The model, tables and simulation are built
/// by run_checks from the plan's own design, NOT taken from compiler
/// internals — the whole point is an independent recomputation.
struct CheckContext {
  const graph::ComputationGraph& graph;
  const core::AllocationPlan& plan;
  const CheckOptions& options;
  const hw::PerfModel& model;
  const core::LatencyTables& tables;
  /// Simulated timeline of the plan (the race detector's clock). Null when
  /// the structure pass already failed fatally.
  const sim::SimResult* sim = nullptr;
};

struct CheckPass {
  const char* name;
  const char* description;
  void (*run)(const CheckContext&, CheckReport&);
};

/// The registered passes in execution order (structure always first).
std::span<const CheckPass> check_passes();

/// Runs every registered pass over `plan` and returns the merged report.
/// Structure violations that make the plan unreadable (shape mismatches)
/// stop the run early — later passes would index out of bounds.
CheckReport run_checks(const graph::ComputationGraph& graph,
                       const core::AllocationPlan& plan,
                       const CheckOptions& options = {});

}  // namespace lcmm::check
