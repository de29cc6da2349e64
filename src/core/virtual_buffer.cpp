#include "core/virtual_buffer.hpp"

#include <algorithm>
#include <stdexcept>

#include "resil/checked.hpp"

namespace lcmm::core {

std::vector<VirtualBuffer> build_virtual_buffers(const InterferenceGraph& graph,
                                                 const ColoringResult& coloring) {
  if (coloring.color_of.size() != graph.size()) {
    throw resil::OptionError(resil::Code::kBadArgument, "pass.coloring",
                             "build_virtual_buffers: coloring size mismatch");
  }
  std::vector<VirtualBuffer> buffers(static_cast<std::size_t>(coloring.num_colors));
  for (std::size_t e = 0; e < graph.size(); ++e) {
    const int c = coloring.color_of[e];
    if (c < 0 || c >= coloring.num_colors) {
      throw resil::OptionError(resil::Code::kBadArgument, "pass.coloring",
                               "build_virtual_buffers: bad color");
    }
    VirtualBuffer& buf = buffers[static_cast<std::size_t>(c)];
    const TensorEntity& entity = graph.entities()[e];
    buf.id = c;
    buf.members.push_back(e);
    buf.bytes = std::max(buf.bytes, entity.bytes);
  }
  // Coloring opens every color for the entity that joins it.
  if (std::any_of(buffers.begin(), buffers.end(),
                  [](const VirtualBuffer& b) { return b.members.empty(); })) {
    throw resil::OptionError(resil::Code::kBadArgument, "pass.coloring",
                             "build_virtual_buffers: empty color");
  }
  return buffers;
}

std::int64_t total_buffer_bytes(const std::vector<VirtualBuffer>& buffers) {
  std::int64_t total = 0;
  for (const VirtualBuffer& b : buffers) {
    total = resil::checked_add(total, b.bytes, "total_buffer_bytes");
  }
  return total;
}

}  // namespace lcmm::core
