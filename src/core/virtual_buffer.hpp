// Virtual buffers (paper Fig. 5(b) / Fig. 7(a)): the result of merging
// compatible tensor entities through coloring. Virtual buffers are the items
// the DNNK knapsack allocates physical on-chip memory to; a spilled virtual
// buffer leaves ALL its member tensors in DRAM (the misspilling problem that
// buffer splitting addresses).
#pragma once

#include <cstdint>
#include <vector>

#include "core/coloring.hpp"
#include "core/entity.hpp"
#include "core/interference.hpp"

namespace lcmm::core {

struct VirtualBuffer {
  int id = -1;
  /// Capacity: the largest member entity.
  std::int64_t bytes = 0;
  /// Indices into the owning interference graph's entity vector.
  std::vector<std::size_t> members;
};

/// Groups entities into virtual buffers according to a coloring; buffer c
/// is color c. Throws OptionError on a color out of range or with no member.
std::vector<VirtualBuffer> build_virtual_buffers(const InterferenceGraph& graph,
                                                 const ColoringResult& coloring);

/// Total bytes across buffers.
std::int64_t total_buffer_bytes(const std::vector<VirtualBuffer>& buffers);

}  // namespace lcmm::core
