#include "core/splitting.hpp"

#include <algorithm>

#include "obs/scope.hpp"
#include "util/logging.hpp"

namespace lcmm::core {

namespace {

/// Only split when the size-defining tensor is at least this many times
/// larger than the buffer-mate it is separated from ("variance of sizes
/// ... exceeds a threshold").
constexpr double kSizeRatioThreshold = 1.5;

/// Picks the (max-tensor, neighbor) pair to separate inside `buffer`, or
/// returns false. The neighbor is the member with the largest standalone
/// latency reduction — the tensor misspilling hurts most.
bool pick_split_pair(const InterferenceGraph& graph, const LatencyTables& tables,
                     const VirtualBuffer& buffer, std::size_t& max_entity,
                     std::size_t& neighbor) {
  if (buffer.members.size() < 2) return false;
  max_entity = buffer.members.front();
  for (std::size_t e : buffer.members) {
    if (graph.entities()[e].bytes > graph.entities()[max_entity].bytes) {
      max_entity = e;
    }
  }
  bool found = false;
  double best_gain = 0.0;
  for (std::size_t e : buffer.members) {
    if (e == max_entity) continue;
    const TensorEntity& entity = graph.entities()[e];
    const double ratio = static_cast<double>(graph.entities()[max_entity].bytes) /
                         static_cast<double>(std::max<std::int64_t>(1, entity.bytes));
    if (ratio < kSizeRatioThreshold) continue;
    if (graph.is_false_edge(max_entity, e)) continue;
    const double gain =
        tables.standalone_reduction(entity.key.layer, entity.key.source);
    if (!found || gain > best_gain) {
      best_gain = gain;
      neighbor = e;
      found = true;
    }
  }
  return found;
}

}  // namespace

SplitOutcome split_and_reallocate(InterferenceGraph& graph,
                                  const LatencyTables& tables,
                                  std::int64_t capacity_bytes,
                                  const AllocatorOptions& alloc_options,
                                  const SplitOptions& split_options) {
  LCMM_SPAN("splitting");
  SplitOutcome outcome;
  outcome.buffers =
      build_virtual_buffers(graph, color_min_total_size(graph));
  outcome.allocation = dnnk_allocate(graph, outcome.buffers, tables,
                                     capacity_bytes, alloc_options);

  for (int iter = 0; iter < split_options.max_iterations; ++iter) {
    LCMM_COUNT("iterations", 1);
    // Largest spilled shared buffer first (the paper's greedy rationale).
    int candidate = -1;
    for (std::size_t b = 0; b < outcome.buffers.size(); ++b) {
      if (outcome.allocation.buffer_on_chip[b]) continue;
      if (outcome.buffers[b].members.size() < 2) continue;
      if (candidate < 0 ||
          outcome.buffers[b].bytes >
              outcome.buffers[static_cast<std::size_t>(candidate)].bytes) {
        candidate = static_cast<int>(b);
      }
    }
    if (candidate < 0) break;

    std::size_t max_entity = 0;
    std::size_t neighbor = 0;
    if (!pick_split_pair(graph, tables,
                         outcome.buffers[static_cast<std::size_t>(candidate)],
                         max_entity, neighbor)) {
      break;
    }
    graph.add_false_edge(max_entity, neighbor);

    std::vector<VirtualBuffer> buffers =
        build_virtual_buffers(graph, color_min_total_size(graph));
    AllocatorResult allocation =
        dnnk_allocate(graph, buffers, tables, capacity_bytes, alloc_options);
    ++outcome.splits_performed;
    LCMM_COUNT("false_edges_added", 1);
    LCMM_DEBUG() << "buffer splitting iter " << iter << ": gain "
                 << outcome.allocation.gain_s * 1e3 << " ms -> "
                 << allocation.gain_s * 1e3 << " ms";
    if (allocation.gain_s > outcome.allocation.gain_s) {
      LCMM_COUNT("improvements", 1);
      outcome.buffers = std::move(buffers);
      outcome.allocation = std::move(allocation);
    }
  }
  LCMM_COUNT("splits_performed", outcome.splits_performed);
  return outcome;
}

}  // namespace lcmm::core
