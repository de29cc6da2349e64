#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace lcmm::graph {

ComputationGraph::ComputationGraph(std::string name) : name_(std::move(name)) {}

void ComputationGraph::shrink_to_fit() {
  layers_.shrink_to_fit();
  for (Value& v : values_) {
    v.producers.shrink_to_fit();
    v.consumers.shrink_to_fit();
  }
  values_.shrink_to_fit();
  value_alive_.shrink_to_fit();
  own_output_shapes_.shrink_to_fit();
}

ValueId ComputationGraph::new_value(std::string name, FeatureShape shape) {
  const ValueId id = static_cast<ValueId>(values_.size());
  values_.push_back(Value{id, std::move(name), shape, {}, {}});
  value_alive_.push_back(true);
  return id;
}

Value& ComputationGraph::mutable_value(ValueId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= values_.size()) {
    throw std::out_of_range("value id " + std::to_string(id) + " out of range");
  }
  if (!value_alive_[static_cast<std::size_t>(id)]) {
    throw std::logic_error("value id " + std::to_string(id) +
                           " was retired by a concat and must not be used");
  }
  return values_[static_cast<std::size_t>(id)];
}

const Value& ComputationGraph::value(ValueId id) const {
  return const_cast<ComputationGraph*>(this)->mutable_value(id);
}

bool ComputationGraph::value_alive(ValueId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < values_.size() &&
         value_alive_[static_cast<std::size_t>(id)];
}

ValueId ComputationGraph::add_input(std::string name, FeatureShape shape) {
  if (shape.channels <= 0 || shape.height <= 0 || shape.width <= 0) {
    throw std::invalid_argument("add_input '" + name + "': bad shape " +
                                shape.to_string());
  }
  return new_value(std::move(name), shape);
}

std::vector<std::string> ComputationGraph::stages() const {
  std::vector<std::string> out;
  for (const Layer& l : layers_) {
    if (out.empty() || out.back() != l.stage) {
      if (std::find(out.begin(), out.end(), l.stage) == out.end()) {
        out.push_back(l.stage);
      }
    }
  }
  return out;
}

LayerId ComputationGraph::append_layer(Layer layer, const FeatureShape& own_out) {
  const LayerId id = static_cast<LayerId>(layers_.size());
  layer.id = id;
  layer.stage = current_stage_;
  mutable_value(layer.input).consumers.push_back(id);
  if (layer.has_residual()) mutable_value(layer.residual).consumers.push_back(id);
  mutable_value(layer.output).producers.push_back(id);
  layers_.push_back(std::move(layer));
  own_output_shapes_.push_back(own_out);
  return id;
}

ValueId ComputationGraph::add_conv(std::string name, ValueId input,
                                   ConvParams params, ValueId residual) {
  Layer layer;
  layer.name = std::move(name);
  layer.kind = LayerKind::kConv;
  layer.input = input;
  layer.residual = residual;
  layer.conv = params;
  const FeatureShape out = infer_output_shape(layer, value(input).shape);
  if (residual != kInvalidValue && !(value(residual).shape == out)) {
    throw std::invalid_argument("conv '" + layer.name + "': residual shape " +
                                value(residual).shape.to_string() +
                                " != output shape " + out.to_string());
  }
  const ValueId output = new_value(layer.name + ".out", out);
  layer.output = output;
  append_layer(std::move(layer), out);
  return output;
}

ValueId ComputationGraph::add_pool(std::string name, ValueId input,
                                   PoolParams params) {
  Layer layer;
  layer.name = std::move(name);
  layer.kind = LayerKind::kPool;
  layer.input = input;
  layer.pool = params;
  const FeatureShape out = infer_output_shape(layer, value(input).shape);
  const ValueId output = new_value(layer.name + ".out", out);
  layer.output = output;
  append_layer(std::move(layer), out);
  return output;
}

ValueId ComputationGraph::add_fc(std::string name, ValueId input, int out_features) {
  const FeatureShape& in = value(input).shape;
  if (in.height != 1 || in.width != 1) {
    throw std::invalid_argument("add_fc '" + name + "': input must be 1x1, got " +
                                in.to_string());
  }
  return add_conv(std::move(name), input,
                  ConvParams{out_features, 1, 1, /*stride=*/1, 0, 0});
}

ValueId ComputationGraph::add_concat(std::string name,
                                     std::span<const ValueId> parts) {
  if (parts.size() < 2) {
    throw std::invalid_argument("add_concat '" + name + "': needs >= 2 parts");
  }
  const FeatureShape& first = value(parts[0]).shape;
  int channels = 0;
  for (ValueId part : parts) {
    const Value& v = value(part);
    if (v.producers.empty()) {
      throw std::invalid_argument("add_concat '" + name +
                                  "': part is a graph input");
    }
    if (!v.consumers.empty()) {
      throw std::invalid_argument("add_concat '" + name + "': part '" + v.name +
                                  "' already has consumers");
    }
    if (v.shape.height != first.height || v.shape.width != first.width) {
      throw std::invalid_argument("add_concat '" + name + "': spatial mismatch " +
                                  v.shape.to_string() + " vs " + first.to_string());
    }
    channels += v.shape.channels;
  }
  const ValueId merged =
      new_value(std::move(name), FeatureShape{channels, first.height, first.width});
  int offset = 0;
  for (ValueId part : parts) {
    Value& v = mutable_value(part);
    for (LayerId producer : v.producers) {
      Layer& layer = layers_[static_cast<std::size_t>(producer)];
      layer.output = merged;
      layer.output_channel_offset += offset;
      values_[static_cast<std::size_t>(merged)].producers.push_back(producer);
    }
    offset += v.shape.channels;
    value_alive_[static_cast<std::size_t>(part)] = false;
  }
  return merged;
}

const Layer& ComputationGraph::layer(LayerId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= layers_.size()) {
    throw std::out_of_range("layer id " + std::to_string(id) + " out of range");
  }
  return layers_[static_cast<std::size_t>(id)];
}

std::vector<ValueId> ComputationGraph::live_values() const {
  std::vector<ValueId> out;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (value_alive_[i]) out.push_back(static_cast<ValueId>(i));
  }
  return out;
}

const FeatureShape& ComputationGraph::input_shape(LayerId id) const {
  return value(layer(id).input).shape;
}

const FeatureShape& ComputationGraph::own_output_shape(LayerId id) const {
  layer(id);  // bounds check
  return own_output_shapes_[static_cast<std::size_t>(id)];
}

std::int64_t ComputationGraph::layer_macs(LayerId id) const {
  const Layer& l = layer(id);
  return l.macs(input_shape(id), own_output_shape(id));
}

std::int64_t ComputationGraph::layer_weight_elems(LayerId id) const {
  const Layer& l = layer(id);
  return l.weight_elems(input_shape(id).channels);
}

std::int64_t ComputationGraph::total_macs() const {
  std::int64_t total = 0;
  for (const Layer& l : layers_) total += layer_macs(l.id);
  return total;
}

std::int64_t ComputationGraph::total_weight_elems() const {
  std::int64_t total = 0;
  for (const Layer& l : layers_) total += layer_weight_elems(l.id);
  return total;
}

int ComputationGraph::num_conv_layers() const {
  int n = 0;
  for (const Layer& l : layers_) n += l.is_conv() ? 1 : 0;
  return n;
}

void ComputationGraph::validate() const {
  for (const Layer& l : layers_) {
    for (ValueId in : {l.input, l.residual}) {
      if (in == kInvalidValue) continue;
      for (LayerId p : values_[static_cast<std::size_t>(in)].producers) {
        if (p >= l.id) {
          throw std::logic_error("graph '" + name_ +
                                 "': builder order is not topological");
        }
      }
    }
    if (!value_alive(l.input) || !value_alive(l.output)) {
      throw std::logic_error("layer '" + l.name + "' references a retired value");
    }
    const FeatureShape own = infer_output_shape(l, input_shape(l.id));
    if (!(own == own_output_shapes_[static_cast<std::size_t>(l.id)])) {
      throw std::logic_error("layer '" + l.name + "': cached shape mismatch");
    }
    const Value& out = value(l.output);
    if (l.output_channel_offset < 0 ||
        l.output_channel_offset + own.channels > out.shape.channels) {
      throw std::logic_error("layer '" + l.name + "': slice exceeds output value");
    }
  }
  // Concat coverage: producers' slices must exactly tile the value.
  for (ValueId vid : live_values()) {
    const Value& v = value(vid);
    if (v.producers.empty()) continue;
    std::int64_t covered = 0;
    for (LayerId p : v.producers) {
      covered += own_output_shapes_[static_cast<std::size_t>(p)].channels;
    }
    if (covered != v.shape.channels) {
      throw std::logic_error("value '" + v.name + "': producer slices cover " +
                             std::to_string(covered) + " of " +
                             std::to_string(v.shape.channels) + " channels");
    }
  }
}

}  // namespace lcmm::graph
