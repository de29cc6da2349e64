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

  for (const graph::Layer& layer : graph.layers()) {
    const hw::LayerTiming& t = model.timing(layer.id);
    if (!options.include_compute_bound && !t.memory_bound()) {
      LCMM_COUNT("skipped_compute_bound", 1);
      continue;
    }
    if (!options.include_pools && !layer.is_conv()) {
      LCMM_COUNT("skipped_non_conv", 1);
      continue;
    }
    const int step = layer.id;

    // t_if(i): the consumed value, live from its production to this read.
    {
      TensorEntity e;
      e.key = {layer.id, TensorSource::kInput};
      e.value = layer.input;
      e.name = graph.value(layer.input).name + "@" + layer.name;
      e.bytes = resil::checked_mul(graph.value(layer.input).shape.elems(),
                                   bpe, "feature bytes");
      e.def_step = value_def_step(graph, layer.input);
      e.last_use_step = step;
      e.stream_latency_s = t.if_s;
      entities.push_back(std::move(e));
    }

    if (layer.has_residual()) {
      TensorEntity e;
      e.key = {layer.id, TensorSource::kResidual};
      e.value = layer.residual;
      e.name = graph.value(layer.residual).name + "@" + layer.name + ".res";
      e.bytes = resil::checked_mul(graph.value(layer.residual).shape.elems(),
                                   bpe, "feature bytes");
      e.def_step = value_def_step(graph, layer.residual);
      e.last_use_step = step;
      e.stream_latency_s = t.res_s;
      entities.push_back(std::move(e));
    }

    // t_of(i): this layer's output slice, live until the value's last read.
    {
      TensorEntity e;
      e.key = {layer.id, TensorSource::kOutput};
      e.value = layer.output;
      e.name = layer.name + ".of";
      e.bytes = resil::checked_mul(graph.own_output_shape(layer.id).elems(),
                                   bpe, "feature bytes");
      e.def_step = step;
      e.last_use_step = value_last_use_step(graph, layer.output);
      e.stream_latency_s = t.of_s;
      entities.push_back(std::move(e));
    }
  }
  LCMM_COUNT("entities", static_cast<std::int64_t>(entities.size()));
  return entities;
}

}  // namespace lcmm::core
