#include "exec/tiled.hpp"

#include <algorithm>
#include <stdexcept>

namespace lcmm::exec {

namespace {

/// A materialized input tile: clipped channel planes over the halo extent.
/// Reads outside the fetched region are padding if outside the image,
/// and a hard error if inside it (halo under-fetch).
class InputTile {
 public:
  InputTile(const Tensor3i& src, int c0, int c1, int r0, int r1, int w0, int w1)
      : src_(src), c0_(c0), r0_(r0), w0_(w0),
        channels_(c1 - c0), rows_(r1 - r0), cols_(w1 - w0),
        data_(static_cast<std::size_t>(std::max(0, channels_)) *
                  std::max(0, rows_) * std::max(0, cols_),
              0) {
    for (int c = 0; c < channels_; ++c) {
      for (int r = 0; r < rows_; ++r) {
        for (int w = 0; w < cols_; ++w) {
          data_[index(c, r, w)] = src.at(c0_ + c, r0_ + r, w0_ + w);
        }
      }
    }
  }

  /// Absolute-coordinate read.
  std::int64_t read(int c, int h, int w) const {
    if (h < 0 || w < 0 || h >= src_.shape().height || w >= src_.shape().width) {
      return 0;  // on-chip generated padding
    }
    if (c < c0_ || c >= c0_ + channels_ || h < r0_ || h >= r0_ + rows_ ||
        w < w0_ || w >= w0_ + cols_) {
      throw std::logic_error("tiled_execute: halo under-fetch at c=" +
                             std::to_string(c) + " h=" + std::to_string(h) +
                             " w=" + std::to_string(w));
    }
    return data_[index(c - c0_, h - r0_, w - w0_)];
  }

 private:
  std::size_t index(int c, int r, int w) const {
    return (static_cast<std::size_t>(c) * rows_ + r) * cols_ + w;
  }
  const Tensor3i& src_;
  int c0_, r0_, w0_;
  int channels_, rows_, cols_;
  std::vector<std::int64_t> data_;
};

void tiled_conv(const graph::ComputationGraph& graph, graph::LayerId id,
                const hw::AcceleratorDesign& design, const Tensor3i& input,
                const Tensor3i* residual, const LayerWeights& weights,
                Tensor3i& out) {
  const graph::Layer& l = graph.layer(id);
  const graph::ConvParams& p = l.conv;
  const graph::FeatureShape own = graph.own_output_shape(id);
  const graph::FeatureShape& in = input.shape();
  const int offset = l.output_channel_offset;
  const int rows = design.array.rows;
  const int tc = design.tile.tc;
  const int th = design.tile.th;
  const int tw = design.tile.tw;
  const int group_channels = in.channels / p.groups;
  const int m_per_group = p.out_channels / p.groups;

  for (int m0 = 0; m0 < own.channels; m0 += rows) {
    const int m_t = std::min(rows, own.channels - m0);
    for (int h0 = 0; h0 < own.height; h0 += th) {
      const int th_t = std::min(th, own.height - h0);
      const int in_r0 = std::max(0, h0 * p.stride - p.pad_h);
      const int in_r1 = std::min(in.height, (h0 + th_t - 1) * p.stride -
                                                p.pad_h + p.kernel_h);
      for (int w0 = 0; w0 < own.width; w0 += tw) {
        const int tw_t = std::min(tw, own.width - w0);
        const int in_w0 = std::max(0, w0 * p.stride - p.pad_w);
        const int in_w1 = std::min(in.width, (w0 + tw_t - 1) * p.stride -
                                                 p.pad_w + p.kernel_w);
        // Output-tile accumulators persist across the c-tile loop.
        std::vector<std::int64_t> acc(
            static_cast<std::size_t>(m_t) * th_t * tw_t, 0);
        const auto acc_at = [&](int m, int r, int w) -> std::int64_t& {
          return acc[(static_cast<std::size_t>(m) * th_t + r) * tw_t + w];
        };
        for (int c0 = 0; c0 < group_channels; c0 += tc) {
          const int c_t = std::min(tc, group_channels - c0);
          // Fetch the covered groups' channel slices for this c-tile: the
          // m-tile spans groups [g_lo, g_hi].
          const int g_lo = m0 / m_per_group;
          const int g_hi = (m0 + m_t - 1) / m_per_group;
          std::vector<InputTile> group_tiles;
          group_tiles.reserve(static_cast<std::size_t>(g_hi - g_lo + 1));
          for (int g = g_lo; g <= g_hi; ++g) {
            group_tiles.emplace_back(input, g * group_channels + c0,
                                     g * group_channels + c0 + c_t, in_r0,
                                     in_r1, in_w0, in_w1);
          }
          // Compute this c-tile's contribution from the tile buffers only.
          for (int m = 0; m < m_t; ++m) {
            const int gm = m0 + m;
            const int group = gm / m_per_group;
            const InputTile& tile = group_tiles[static_cast<std::size_t>(
                group - g_lo)];
            for (int oh = 0; oh < th_t; ++oh) {
              for (int ow = 0; ow < tw_t; ++ow) {
                std::int64_t sum = 0;
                for (int c = 0; c < c_t; ++c) {
                  const int ic = group * group_channels + c0 + c;
                  for (int i = 0; i < p.kernel_h; ++i) {
                    for (int j = 0; j < p.kernel_w; ++j) {
                      const int ih = (h0 + oh) * p.stride - p.pad_h + i;
                      const int iw = (w0 + ow) * p.stride - p.pad_w + j;
                      sum += tile.read(ic, ih, iw) *
                             weights.at(gm, c0 + c, i, j);
                    }
                  }
                }
                acc_at(m, oh, ow) += sum;
              }
            }
          }
        }
        // Write-out: fused residual add, then store the slice.
        for (int m = 0; m < m_t; ++m) {
          for (int oh = 0; oh < th_t; ++oh) {
            for (int ow = 0; ow < tw_t; ++ow) {
              std::int64_t v = acc_at(m, oh, ow);
              if (residual != nullptr) {
                v += residual->at(m0 + m, h0 + oh, w0 + ow);
              }
              out.at(offset + m0 + m, h0 + oh, w0 + ow) = v;
            }
          }
        }
      }
    }
  }
}

}  // namespace

ValueMap tiled_execute(const graph::ComputationGraph& graph,
                       const hw::AcceleratorDesign& design,
                       std::uint64_t seed) {
  if (!design.array.valid() || !design.tile.valid()) {
    throw std::invalid_argument("tiled_execute: invalid design");
  }
  ValueMap values;
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
    if (l.is_conv()) {
      tiled_conv(graph, l.id, design, input, residual, weights, out);
    } else {
      reference_layer(graph, l.id, input, residual, weights, out);
    }
  }
  return values;
}

}  // namespace lcmm::exec
