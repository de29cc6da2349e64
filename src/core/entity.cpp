#include "core/entity.hpp"

#include <bit>

namespace lcmm::core {

std::string to_string(TensorSource s) {
  switch (s) {
    case TensorSource::kInput: return "if";
    case TensorSource::kResidual: return "res";
    case TensorSource::kWeight: return "wt";
    case TensorSource::kOutput: return "of";
  }
  return "?";
}

std::string tensor_name(const graph::ComputationGraph& graph, TensorKey key) {
  const graph::Layer& layer = graph.layer(key.layer);
  switch (key.source) {
    case TensorSource::kInput:
      return graph.value(layer.input).name + "@" + layer.name;
    case TensorSource::kResidual:
      return graph.value(layer.residual).name + "@" + layer.name + ".res";
    case TensorSource::kWeight: return layer.name + ".wt";
    case TensorSource::kOutput: return layer.name + ".of";
  }
  return layer.name + ".?";
}

int OnChipState::count() const {
  int n = 0;
  for (std::uint8_t m : mask_) n += std::popcount(m);
  return n;
}

}  // namespace lcmm::core
