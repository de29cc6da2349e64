#include "core/liveness.hpp"

#include <algorithm>

#include "obs/scope.hpp"
#include "resil/checked.hpp"

namespace lcmm::core {

int value_def_step(const graph::ComputationGraph& graph, graph::ValueId value) {
  const graph::Value& v = graph.value(value);
  int def = kBeforeExecution;
  for (graph::LayerId p : v.producers) def = std::max(def, p);
  return def;
}

int value_last_use_step(const graph::ComputationGraph& graph,
                        graph::ValueId value) {
  const graph::Value& v = graph.value(value);
  int last = value_def_step(graph, value);
  for (graph::LayerId c : v.consumers) last = std::max(last, c);
  return last;
}

std::vector<TensorEntity> build_feature_entities(const hw::PerfModel& model,
                                                 const LivenessOptions& options) {
  LCMM_SPAN("liveness");
  const graph::ComputationGraph& graph = model.graph();
  std::vector<TensorEntity> entities;
  const int bpe = hw::bytes_per_elem(model.design().precision);
  const auto feature_bytes = [bpe](const graph::FeatureShape& shape) {
    return resil::checked_mul(shape.elems(), bpe, "feature bytes");
  };

  for (const graph::Layer& layer : graph.layers()) {
    const hw::LayerTiming& t = model.timing(layer.id);
    if (!options.include_compute_bound && !t.memory_bound()) {
      LCMM_COUNT("skipped_compute_bound", 1);
      continue;
    }
    const int step = layer.id;

    // t_if(i): the consumed value, live from its production to this read.
    entities.push_back({{layer.id, TensorSource::kInput},
                        feature_bytes(graph.value(layer.input).shape),
                        value_def_step(graph, layer.input), step});
    if (layer.has_residual()) {
      entities.push_back({{layer.id, TensorSource::kResidual},
                          feature_bytes(graph.value(layer.residual).shape),
                          value_def_step(graph, layer.residual), step});
    }
    // t_of(i): this layer's output slice, live until the value's last read.
    entities.push_back({{layer.id, TensorSource::kOutput},
                        feature_bytes(graph.own_output_shape(layer.id)), step,
                        value_last_use_step(graph, layer.output)});
  }
  LCMM_COUNT("entities", static_cast<std::int64_t>(entities.size()));
  return entities;
}

}  // namespace lcmm::core
