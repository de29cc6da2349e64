// Weight buffer prefetching (paper §3.2, Fig. 6).
//
// Weights, unlike features, are available in DRAM before inference starts,
// so an on-chip weight buffer can be filled ahead of its use. For each
// memory-bound conv node Ck we compute the full-tensor load time T and
// backtrace through the execution order to the node Ck' where the elapsed
// time from Ck' to Ck first covers T. The (Ck', Ck) prefetching edges form
// the prefetching dependence graph; weight tensors whose prefetch windows
// [step(Ck'), step(Ck)] are disjoint may share a buffer, which the regular
// interference-graph coloring discovers.
#pragma once

#include <optional>
#include <vector>

#include "core/entity.hpp"
#include "core/liveness.hpp"
#include "hw/perf_model.hpp"

namespace lcmm::core {

/// Burst size of a whole weight tensor's load: full weight tensors stream
/// sequentially from DRAM in long bursts.
inline constexpr double kSequentialBurstBytes = 4096.0;

struct PrefetchEdge {
  graph::LayerId target = graph::kInvalidLayer;  // Ck
  /// Step of Ck'. kBeforeExecution when even the full prefix of the
  /// schedule cannot hide the load (w1/w2 in the paper's Fig. 6).
  int start_step = kBeforeExecution;
  /// T: seconds to stream the full weight tensor from DRAM.
  double load_seconds = 0.0;
  /// UMM execution time available between Ck' and Ck.
  double window_seconds = 0.0;

  bool fully_hidden() const { return window_seconds >= load_seconds; }
};

class PrefetchResult {
 public:
  PrefetchResult() = default;
  explicit PrefetchResult(std::vector<PrefetchEdge> edges);

  const std::vector<PrefetchEdge>& edges() const { return edges_; }
  const PrefetchEdge* edge_for(graph::LayerId layer) const;
  int num_fully_hidden() const;

 private:
  std::vector<PrefetchEdge> edges_;  // sorted by target
};

/// Builds prefetch edges for the weights of every eligible conv layer.
PrefetchResult build_prefetch_schedule(const hw::PerfModel& model,
                                       const LivenessOptions& options = {});

/// Builds the weight tensor entities with prefetch-window lifespans.
/// Only layers with a prefetch edge participate.
std::vector<TensorEntity> build_weight_entities(const hw::PerfModel& model,
                                                const PrefetchResult& prefetch);

}  // namespace lcmm::core
