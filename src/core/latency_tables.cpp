#include "core/latency_tables.hpp"

#include <algorithm>

namespace lcmm::core {

namespace {
// hw::eq1_latency reads masks in TensorSource bit order.
static_assert(hw::kOnChipInput == 1u << static_cast<int>(TensorSource::kInput));
static_assert(hw::kOnChipResidual ==
              1u << static_cast<int>(TensorSource::kResidual));
static_assert(hw::kOnChipWeight == 1u << static_cast<int>(TensorSource::kWeight));
static_assert(hw::kOnChipOutput == 1u << static_cast<int>(TensorSource::kOutput));

bool bit(std::uint8_t mask, TensorSource s) {
  return (mask >> static_cast<int>(s)) & 1u;
}
std::uint8_t with_bit(std::uint8_t mask, TensorSource s) {
  return static_cast<std::uint8_t>(mask | (1u << static_cast<int>(s)));
}
}  // namespace

LatencyTables::LatencyTables(const hw::PerfModel& model) : model_(&model) {}

double LatencyTables::stream_latency(graph::LayerId layer,
                                     TensorSource source) const {
  const hw::LayerTiming& t = model_->timing(layer);
  switch (source) {
    case TensorSource::kInput: return t.if_s;
    case TensorSource::kResidual: return t.res_s;
    case TensorSource::kWeight: return t.wt_s;
    case TensorSource::kOutput: return t.of_s;
  }
  return 0.0;
}

double LatencyTables::node_latency(graph::LayerId layer,
                                   std::uint8_t mask) const {
  const hw::LayerTiming& t = model_->timing(layer);
  return hw::eq1_latency(t.compute_s, t.if_s, t.res_s, t.wt_s, t.of_s, mask);
}

double LatencyTables::node_latency_umm(graph::LayerId layer) const {
  return node_latency(layer, 0);
}

double LatencyTables::marginal_gain(graph::LayerId layer, TensorSource source,
                                    std::uint8_t current_mask) const {
  return node_latency(layer, current_mask) -
         node_latency(layer, with_bit(current_mask, source));
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

bool LatencyTables::pivot(graph::LayerId layer, std::uint8_t mask,
                          TensorSource& pivot_out) const {
  double best = 0.0;
  bool found = false;
  for (int s = 0; s < kNumSources; ++s) {
    const TensorSource src = static_cast<TensorSource>(s);
    if (bit(mask, src)) continue;
    const double lat = stream_latency(layer, src);
    if (lat > best) {
      best = lat;
      pivot_out = src;
      found = true;
    }
  }
  return found;
}

double LatencyTables::total_latency(const OnChipState& state) const {
  double total = 0.0;
  for (const graph::Layer& layer : model_->graph().layers()) {
    total += node_latency(layer.id, state.layer_mask(layer.id));
  }
  return total;
}

}  // namespace lcmm::core
