// Buffer splitting (paper §3.4).
//
// Sharing one virtual buffer means one knapsack decision for every member
// tensor: when a shared buffer spills, a small tensor with a large gain is
// dragged off-chip with it ("misspilling"). Splitting adds a FALSE lifespan
// overlap edge between the buffer's size-defining tensor and a neighbor,
// forcing them into different colors; the next DNNK round can then keep the
// valuable part on chip. Iterates greedily from the largest spilled buffer.
#pragma once

#include "core/dnnk.hpp"

namespace lcmm::core {

struct SplitOptions {
  int max_iterations = 8;
};

struct SplitOutcome {
  std::vector<VirtualBuffer> buffers;  // re-colored buffers
  AllocatorResult allocation;          // best allocation found
  int splits_performed = 0;
};

/// Runs allocate -> split -> re-color -> allocate until no profitable split
/// remains. `graph` accumulates the false edges (mutated in place).
SplitOutcome split_and_reallocate(InterferenceGraph& graph,
                                  const LatencyTables& tables,
                                  std::int64_t capacity_bytes,
                                  const AllocatorOptions& alloc_options = {},
                                  const SplitOptions& split_options = {});

}  // namespace lcmm::core
