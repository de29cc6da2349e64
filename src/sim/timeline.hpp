// Timeline simulator: executes one inference of an AllocationPlan layer
// by layer.
//
// Per layer, compute and the three DRAM streams overlap via double
// buffering (Eq. 1); on-chip tensors drop their stream terms. Weight
// prefetches are scheduled against the *leftover* weight-stream bandwidth
// of the layers inside their prefetch window, in target order; whatever
// has not arrived when the target layer starts becomes a stall. This is
// where the paper's "weight loading could be hidden by the execution of
// the nodes before Ck" is actually tested rather than assumed. A window
// the backtrace could not fit (kBeforeExecution) opens at the first step;
// resident weights are loaded before execution and never requested.
//
// Cost: a cursor over the target-sorted requests charges the stalls, and
// the requests whose window is open wait in a target-ordered active list,
// so S steps and R requests take O(S + R log R) plus the active-list
// inserts, not the O(S * R) of scanning every request at every step.
#pragma once

#include <vector>

#include "core/lcmm.hpp"

namespace lcmm::sim {

struct LayerExecution {
  graph::LayerId layer = graph::kInvalidLayer;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Charged (post-allocation) latency terms.
  double compute_s = 0.0;
  double if_s = 0.0;  // input + residual streams still off-chip
  double wt_s = 0.0;
  double of_s = 0.0;
  /// Prefetch stall paid before this layer could start.
  double stall_s = 0.0;

  double latency_s() const { return end_s - start_s; }
};

struct SimResult {
  double total_s = 0.0;
  double total_stall_s = 0.0;
  /// In execution order.
  std::vector<LayerExecution> layers;
  /// Prefetch bandwidth-time that was successfully hidden.
  double hidden_prefetch_s = 0.0;
};

/// Simulates `plan` under `model`, its design's model (the layer count is
/// checked). The graph form builds that model first.
SimResult simulate(const hw::PerfModel& model, const core::AllocationPlan& plan);
SimResult simulate(const graph::ComputationGraph& graph,
                   const core::AllocationPlan& plan);

/// Demotes on-chip weight tensors whose prefetch stalls make the layer
/// slower than its UMM latency (rare; early layers with no window),
/// re-simulating under the plan's `model` (one simulate per round) until a
/// round demotes nothing, and sets the plan's est_latency_s to the final
/// simulated latency. Returns that simulation. LcmmCompiler::compile and
/// compile_with_design already run it on every plan they return, so a
/// further call demotes nothing. The graph form builds the model first.
SimResult refine_against_stalls(const hw::PerfModel& model,
                                core::AllocationPlan& plan);
SimResult refine_against_stalls(const graph::ComputationGraph& graph,
                                core::AllocationPlan& plan);

}  // namespace lcmm::sim
