// The DNN computation graph: a DAG of conv/pool layers over feature-map
// values. Graphs are built through the add_* API, which performs shape
// inference eagerly and only reads values that already exist, so layers are
// appended in topological order: a layer's id is its execution step
// (validate() checks this). Graphs are immutable afterwards.
//
// Thread safety: construction (add_*) is single-threaded. A built graph is
// plain data with no lazy state, so its const accessors may be called
// concurrently without a lock (see docs/parallelism.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/layer.hpp"
#include "graph/tensor.hpp"

namespace lcmm::graph {

class ComputationGraph {
 public:
  explicit ComputationGraph(std::string name);

  // ---- construction -----------------------------------------------------

  /// Sets the stage label attached to subsequently added layers.
  void set_stage(std::string stage) { current_stage_ = std::move(stage); }
  /// Stage labels in first-appearance order.
  std::vector<std::string> stages() const;

  /// Declares a graph input feature map.
  ValueId add_input(std::string name, FeatureShape shape);

  /// Adds a convolution (optionally with a fused residual add whose shape
  /// must equal the conv output). Returns the output value.
  ValueId add_conv(std::string name, ValueId input, ConvParams params,
                   ValueId residual = kInvalidValue);

  /// Adds a pooling layer. Returns the output value.
  ValueId add_pool(std::string name, ValueId input, PoolParams params);

  /// Fully-connected layer: 1x1 conv on a 1x1 feature map. The input must
  /// already be 1x1 spatially (use a global pool first).
  ValueId add_fc(std::string name, ValueId input, int out_features);

  /// Merges branch output values into one concatenated value (zero-copy:
  /// each producer keeps writing its own channel slice). The parts must
  /// have identical spatial shape and no consumers yet; they are retired
  /// and must not be referenced afterwards.
  ValueId add_concat(std::string name, std::span<const ValueId> parts);

  // ---- inspection ---------------------------------------------------------

  const std::string& name() const { return name_; }
  std::size_t num_layers() const { return layers_.size(); }
  const Layer& layer(LayerId id) const;
  std::span<const Layer> layers() const { return layers_; }

  /// Live values only (values retired by concat are excluded).
  std::vector<ValueId> live_values() const;
  const Value& value(ValueId id) const;
  bool value_alive(ValueId id) const;

  /// Shape of the layer's main input value.
  const FeatureShape& input_shape(LayerId id) const;
  /// Shape of the slice this layer itself produces (for concat branches
  /// this is narrower than the output value's shape).
  const FeatureShape& own_output_shape(LayerId id) const;
  std::int64_t layer_macs(LayerId id) const;
  std::int64_t layer_weight_elems(LayerId id) const;

  std::int64_t total_macs() const;
  std::int64_t total_weight_elems() const;
  /// Conv layers only (the paper's "layers" counts).
  int num_conv_layers() const;

  /// Full consistency check: shape agreement, ids in execution order (every
  /// producer of a layer's input and residual has a smaller id), concat
  /// slice coverage, residual shape equality. Throws std::logic_error.
  void validate() const;

  /// Releases the growth slack that building left in the graph's storage,
  /// so a finished graph holds only its contents (a parsed graph was
  /// ≈30% slack).
  void shrink_to_fit();

 private:
  ValueId new_value(std::string name, FeatureShape shape);
  LayerId append_layer(Layer layer, const FeatureShape& own_out);
  Value& mutable_value(ValueId id);

  std::string name_;
  std::string current_stage_;
  std::vector<Layer> layers_;
  std::vector<Value> values_;
  std::vector<bool> value_alive_;
  std::vector<FeatureShape> own_output_shapes_;  // indexed by LayerId
};

}  // namespace lcmm::graph
