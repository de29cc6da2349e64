#include "sim/memory_trace.hpp"

#include <algorithm>
#include <sstream>

namespace lcmm::sim {

MemoryTrace build_memory_trace(const graph::ComputationGraph& graph,
                               const core::AllocationPlan& plan,
                               const SimResult& sim) {
  MemoryTrace trace;
  trace.on_chip_bytes = plan.tile_buffers.total() + plan.tensor_buffer_bytes;
  trace.device_sram_bytes = plan.design.device.sram_bytes_total();

  const int last_step = static_cast<int>(sim.layers.size()) - 1;
  const auto step_start = [&](int step) {
    if (step <= 0) return 0.0;
    if (step > last_step) return sim.total_s;
    return sim.layers[static_cast<std::size_t>(step)].start_s;
  };
  const auto step_end = [&](int step) {
    if (step < 0) return 0.0;
    if (step >= last_step) return sim.total_s;
    return sim.layers[static_cast<std::size_t>(step)].end_s;
  };

  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    for (std::size_t e : plan.buffers[b].members) {
      const core::TensorEntity& entity = plan.entities[e];
      TensorResidency r;
      r.name = core::tensor_name(graph, entity.key);
      r.key = entity.key;
      r.on_chip = plan.state.is_on(entity.key);
      r.virtual_buffer = plan.buffers[b].id;
      r.bytes = entity.bytes;
      r.start_step = entity.def_step;
      r.end_step = entity.last_use_step;
      r.start_s = step_start(entity.def_step);
      r.end_s = step_end(entity.last_use_step);
      trace.records.push_back(std::move(r));
    }
  }
  std::sort(trace.records.begin(), trace.records.end(),
            [](const TensorResidency& a, const TensorResidency& b) {
              if (a.start_step != b.start_step) return a.start_step < b.start_step;
              return a.name < b.name;
            });
  return trace;
}

std::string MemoryTrace::ascii_gantt(std::size_t max_rows, int width) const {
  std::ostringstream os;
  int max_step = 1;
  std::size_t name_width = 4;
  for (const TensorResidency& r : records) {
    max_step = std::max(max_step, r.end_step);
    name_width = std::max(name_width, r.name.size());
  }
  name_width = std::min<std::size_t>(name_width, 32);
  const double scale = static_cast<double>(width - 1) / std::max(1, max_step);
  std::size_t shown = 0;
  for (const TensorResidency& r : records) {
    if (shown++ >= max_rows) {
      os << "... (" << records.size() - max_rows << " more)\n";
      break;
    }
    std::string name = r.name.substr(0, name_width);
    name.resize(name_width, ' ');
    std::string bar(static_cast<std::size_t>(width), ' ');
    const int from = static_cast<int>(std::max(0, r.start_step) * scale);
    const int to = static_cast<int>(std::max(0, r.end_step) * scale);
    for (int x = from; x <= to && x < width; ++x) {
      bar[static_cast<std::size_t>(x)] = r.on_chip ? '#' : '.';
    }
    os << name << " |" << bar << "| " << (r.on_chip ? "on " : "off")
       << " vbuf" << r.virtual_buffer << "\n";
  }
  return os.str();
}

}  // namespace lcmm::sim
