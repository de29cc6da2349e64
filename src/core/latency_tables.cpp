#include "core/latency_tables.hpp"

#include <stdexcept>

namespace lcmm::core {

namespace {
// hw::eq1_latency reads masks in TensorSource bit order.
static_assert(hw::kOnChipInput == 1u << static_cast<int>(TensorSource::kInput));
static_assert(hw::kOnChipResidual ==
              1u << static_cast<int>(TensorSource::kResidual));
static_assert(hw::kOnChipWeight == 1u << static_cast<int>(TensorSource::kWeight));
static_assert(hw::kOnChipOutput == 1u << static_cast<int>(TensorSource::kOutput));

std::uint8_t with_bit(std::uint8_t mask, TensorSource s) {
  return static_cast<std::uint8_t>(mask | (1u << static_cast<int>(s)));
}
}  // namespace

LatencyTables::LatencyTables(const hw::PerfModel& model) : model_(&model) {
  latency_.reserve(model.graph().num_layers());
  for (const graph::Layer& layer : model.graph().layers()) {
    const hw::LayerTiming& t = model.timing(layer.id);
    std::array<double, kMasks>& row = latency_.emplace_back();
    for (std::size_t mask = 0; mask < kMasks; ++mask) {
      row[mask] = hw::eq1_latency(t.compute_s, t.if_s, t.res_s, t.wt_s, t.of_s,
                                  static_cast<std::uint8_t>(mask));
    }
  }
}

const std::array<double, LatencyTables::kMasks>& LatencyTables::row(
    graph::LayerId layer) const {
  if (layer < 0 || static_cast<std::size_t>(layer) >= latency_.size()) {
    throw std::out_of_range("LatencyTables: bad layer id");
  }
  return latency_[static_cast<std::size_t>(layer)];
}

double LatencyTables::node_latency(graph::LayerId layer,
                                   std::uint8_t mask) const {
  return row(layer)[mask & (kMasks - 1)];
}

double LatencyTables::marginal_gain(graph::LayerId layer, TensorSource source,
                                    std::uint8_t current_mask) const {
  const std::array<double, kMasks>& latency = row(layer);
  return latency[current_mask & (kMasks - 1)] -
         latency[with_bit(current_mask, source) & (kMasks - 1)];
}

double LatencyTables::standalone_reduction(graph::LayerId layer,
                                           TensorSource source) const {
  // Mask with every other source on-chip: the remaining max is either this
  // source's latency or the compute floor, so the gain equals Eq. 2's
  // "gap down to the next smaller term" with compute as the final floor.
  std::uint8_t mask = 0x0F;
  mask = static_cast<std::uint8_t>(mask & ~(1u << static_cast<int>(source)));
  return marginal_gain(layer, source, mask);
}

double LatencyTables::total_latency(const OnChipState& state) const {
  double total = 0.0;
  for (std::size_t layer = 0; layer < latency_.size(); ++layer) {
    total += latency_[layer][state.layer_mask(static_cast<graph::LayerId>(layer)) &
                             (kMasks - 1)];
  }
  return total;
}

}  // namespace lcmm::core
