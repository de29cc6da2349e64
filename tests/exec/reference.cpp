#include "exec/reference.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace lcmm::exec {

void reference_layer(const graph::ComputationGraph& graph,
                     graph::LayerId id, const Tensor3i& input,
                     const Tensor3i* residual, const LayerWeights& weights,
                     Tensor3i& out) {
  const graph::Layer& l = graph.layer(id);
  const graph::FeatureShape own = graph.own_output_shape(id);
  const int offset = l.output_channel_offset;

  if (l.kind == graph::LayerKind::kPool) {
    const graph::PoolParams& p = l.pool;
    const int kernel_h = p.global ? input.shape().height : p.kernel;
    const int kernel_w = p.global ? input.shape().width : p.kernel;
    const int stride = p.global ? 1 : p.stride;
    const int pad = p.global ? 0 : p.pad;
    for (int c = 0; c < own.channels; ++c) {
      for (int oh = 0; oh < own.height; ++oh) {
        for (int ow = 0; ow < own.width; ++ow) {
          std::int64_t acc = p.type == graph::PoolType::kMax
                                 ? std::numeric_limits<std::int64_t>::min()
                                 : 0;
          for (int i = 0; i < kernel_h; ++i) {
            for (int j = 0; j < kernel_w; ++j) {
              const int ih = oh * stride - pad + i;
              const int iw = ow * stride - pad + j;
              // Max pooling ignores padding; sum pooling treats it as 0.
              if (p.type == graph::PoolType::kMax) {
                if (ih < 0 || iw < 0 || ih >= input.shape().height ||
                    iw >= input.shape().width) {
                  continue;
                }
                acc = std::max(acc, input.at(c, ih, iw));
              } else {
                acc += input.at_padded(c, ih, iw);
              }
            }
          }
          out.at(offset + c, oh, ow) = acc;
        }
      }
    }
    return;
  }

  const graph::ConvParams& p = l.conv;
  const int group_channels = input.shape().channels / p.groups;
  const int m_per_group = p.out_channels / p.groups;
  for (int m = 0; m < own.channels; ++m) {
    const int group = m / m_per_group;
    for (int oh = 0; oh < own.height; ++oh) {
      for (int ow = 0; ow < own.width; ++ow) {
        std::int64_t acc = 0;
        for (int c = 0; c < group_channels; ++c) {
          const int ic = group * group_channels + c;
          for (int i = 0; i < p.kernel_h; ++i) {
            for (int j = 0; j < p.kernel_w; ++j) {
              const int ih = oh * p.stride - p.pad_h + i;
              const int iw = ow * p.stride - p.pad_w + j;
              acc += input.at_padded(ic, ih, iw) * weights.at(m, c, i, j);
            }
          }
        }
        if (residual != nullptr) acc += residual->at(m, oh, ow);
        out.at(offset + m, oh, ow) = acc;
      }
    }
  }
}

ValueMap reference_execute(const graph::ComputationGraph& graph,
                           std::uint64_t seed) {
  ValueMap values;
  // Materialize graph inputs.
  for (graph::ValueId vid : graph.live_values()) {
    const graph::Value& v = graph.value(vid);
    if (v.is_graph_input()) {
      values.emplace(vid, synthesize_input(v.shape, seed + vid));
    }
  }
  for (const graph::Layer& l : graph.layers()) {
    auto& out = values.try_emplace(l.output,
                                   Tensor3i(graph.value(l.output).shape))
                    .first->second;
    const Tensor3i& input = values.at(l.input);
    const Tensor3i* residual =
        l.has_residual() ? &values.at(l.residual) : nullptr;
    const LayerWeights weights = synthesize_weights(graph, l.id, seed);
    reference_layer(graph, l.id, input, residual, weights, out);
  }
  return values;
}

}  // namespace lcmm::exec
