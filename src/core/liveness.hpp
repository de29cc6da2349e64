// Liveness analysis over the computation graph (paper §3.1 / §3.2).
//
// Feature entities get closed step intervals:
//   t_if(i)/t_res(i): [max producer step of the value, step(i)]
//                     (graph inputs are live from kBeforeExecution),
//   t_of(i):          [step(i), last consumer step of the value]
//                     (an on-chip output must survive until its last reader).
// Weight entities are produced by the prefetching pass (§3.2), which sets
// their def step to the prefetch start; see core/prefetch.hpp.
#pragma once

#include <vector>

#include "core/entity.hpp"
#include "hw/perf_model.hpp"

namespace lcmm::core {

struct LivenessOptions {
  /// Only tensors of memory-bound layers take part in allocation (the
  /// paper's Fig. 5 excludes computation-bounded tensors). Setting this to
  /// true admits every layer's tensors (useful for stress tests).
  bool include_compute_bound = false;
};

/// Builds the feature tensor entities (if / res / of) that are candidates
/// for on-chip buffers, with their liveness intervals and UMM stream
/// latencies taken from `model`.
std::vector<TensorEntity> build_feature_entities(const hw::PerfModel& model,
                                                 const LivenessOptions& options = {});

/// Def step of a value: the latest producer's step, or kBeforeExecution for
/// graph inputs.
int value_def_step(const graph::ComputationGraph& graph, graph::ValueId value);

/// Last step at which a value is read, or its def step if never read.
int value_last_use_step(const graph::ComputationGraph& graph, graph::ValueId value);

}  // namespace lcmm::core
