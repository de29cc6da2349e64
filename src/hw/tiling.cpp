#include "hw/tiling.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include "resil/error.hpp"

namespace lcmm::hw {

namespace {
std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Kernel extent and stride of a layer along one axis (pool layers behave
/// like convs with square windows for tiling purposes).
struct AxisParams {
  int kernel;
  int stride;
};

AxisParams h_params(const graph::Layer& l) {
  if (l.is_conv()) return {l.conv.kernel_h, l.conv.stride};
  return {l.pool.global ? 1 : l.pool.kernel, l.pool.global ? 1 : l.pool.stride};
}
AxisParams w_params(const graph::Layer& l) {
  if (l.is_conv()) return {l.conv.kernel_w, l.conv.stride};
  return {l.pool.global ? 1 : l.pool.kernel, l.pool.global ? 1 : l.pool.stride};
}

int h_pad(const graph::Layer& l) {
  return l.is_conv() ? l.conv.pad_h : (l.pool.global ? 0 : l.pool.pad);
}
int w_pad(const graph::Layer& l) {
  return l.is_conv() ? l.conv.pad_w : (l.pool.global ? 0 : l.pool.pad);
}

/// Input extent fetched by the output tile starting at `o`.
std::int64_t tile_fetch(int o, int out_extent, int tile, int kernel,
                        int stride, int in_extent, int pad) {
  const int span = std::min(tile, out_extent - o);
  const int in_first = std::max(0, o * stride - pad);
  const int in_last =
      std::min(in_extent - 1, (o + span - 1) * stride - pad + kernel - 1);
  return std::max(0, in_last - in_first + 1);
}
}  // namespace

std::int64_t fetched_extent(int out_extent, int tile, int kernel, int stride,
                            int in_extent, int pad) {
  // Tile t is unclipped when t * step >= pad (head) and
  // t * step + span + kernel - pad <= in_extent (tail), and full when
  // t < out_extent / tile. Those tiles, [lo, hi), each fetch
  // span + kernel; only the head and tail tiles are evaluated one by one.
  const int num_tiles = static_cast<int>(ceil_div(out_extent, tile));
  const std::int64_t step = static_cast<std::int64_t>(tile) * stride;
  const std::int64_t span = static_cast<std::int64_t>(tile - 1) * stride;
  const int lo = static_cast<int>(ceil_div(pad, step));
  const std::int64_t reach = in_extent + pad - kernel - span;
  const int hi = std::max(
      lo, reach < 0 ? 0
                    : static_cast<int>(std::min<std::int64_t>(
                          reach / step + 1, out_extent / tile)));
  std::int64_t total = (hi - lo) * (span + kernel);
  const auto edge = [&](int t) {
    total += tile_fetch(t * tile, out_extent, tile, kernel, stride, in_extent,
                        pad);
  };
  for (int t = 0; t < std::min(lo, num_tiles); ++t) edge(t);
  for (int t = hi; t < num_tiles; ++t) edge(t);
  return total;
}

LayerTileGeometry layer_tile_counts(const graph::ComputationGraph& graph,
                                    graph::LayerId id,
                                    const SystolicArrayConfig& array,
                                    const TileConfig& tile) {
  if (!array.valid() || !tile.valid()) {
    throw resil::OptionError(resil::Code::kBadArgument, "hw.tiling",
                             "layer_tile_geometry: invalid config");
  }
  const graph::Layer& layer = graph.layer(id);
  const graph::FeatureShape& in = graph.input_shape(id);
  const graph::FeatureShape& out = graph.own_output_shape(id);

  LayerTileGeometry g;
  const int groups = layer.is_conv() ? layer.conv.groups : 1;
  g.group_channels = in.channels / groups;
  // Output-stationary array: the m-tile IS the PE row count.
  g.n_m = static_cast<int>(ceil_div(out.channels, array.rows));
  g.n_c = static_cast<int>(ceil_div(g.group_channels, tile.tc));
  // Channels an m-tile touches: its covered groups' slices only.
  const int m_per_group = std::max(1, out.channels / groups);
  const int groups_per_mtile = std::min<int>(
      groups, static_cast<int>(ceil_div(std::min(array.rows, out.channels),
                                        m_per_group)));
  g.channels_per_mtile =
      std::min(in.channels, g.group_channels * groups_per_mtile);
  g.n_h = static_cast<int>(ceil_div(out.height, tile.th));
  g.n_w = static_cast<int>(ceil_div(out.width, tile.tw));
  return g;
}

LayerTileGeometry layer_tile_geometry(const graph::ComputationGraph& graph,
                                      graph::LayerId id,
                                      const SystolicArrayConfig& array,
                                      const TileConfig& tile) {
  LayerTileGeometry g = layer_tile_counts(graph, id, array, tile);
  const graph::Layer& layer = graph.layer(id);
  const graph::FeatureShape& in = graph.input_shape(id);
  const graph::FeatureShape& out = graph.own_output_shape(id);
  const AxisParams ah = h_params(layer);
  const AxisParams aw = w_params(layer);
  g.fetched_rows = fetched_extent(out.height, tile.th, ah.kernel, ah.stride,
                                  in.height, h_pad(layer));
  g.fetched_cols = fetched_extent(out.width, tile.tw, aw.kernel, aw.stride,
                                  in.width, w_pad(layer));
  return g;
}

TileBufferBytes tile_buffer_bytes(const graph::ComputationGraph& graph,
                                  const SystolicArrayConfig& array,
                                  const TileConfig& tile, Precision p) {
  std::vector<graph::LayerId> layers(graph.num_layers());
  std::iota(layers.begin(), layers.end(), graph::LayerId{0});
  return tile_buffer_bytes(graph, layers, array, tile, p);
}

TileBufferBytes tile_buffer_bytes(const graph::ComputationGraph& graph,
                                  std::span<const graph::LayerId> layers,
                                  const SystolicArrayConfig& array,
                                  const TileConfig& tile, Precision p) {
  const int bpe = bytes_per_elem(p);
  TileBufferBytes out;
  for (graph::LayerId id : layers) {
    const graph::Layer& layer = graph.layer(id);
    const graph::FeatureShape& in = graph.input_shape(id);
    const AxisParams ah = h_params(layer);
    const AxisParams aw = w_params(layer);
    const int in_th = std::min((tile.th - 1) * ah.stride + ah.kernel, in.height);
    const int in_tw = std::min((tile.tw - 1) * aw.stride + aw.kernel, in.width);
    const int c = std::min(tile.tc, in.channels);
    const std::int64_t if_tile = static_cast<std::int64_t>(c) * in_th * in_tw * bpe;
    std::int64_t wt_tile = 0;
    if (layer.is_conv()) {
      const int cg = std::min(tile.tc, in.channels / layer.conv.groups);
      wt_tile = static_cast<std::int64_t>(array.rows) * cg * layer.conv.kernel_h *
                layer.conv.kernel_w * bpe;
    }
    const std::int64_t of_tile = static_cast<std::int64_t>(array.rows) * tile.th *
                                 tile.tw * accumulator_bytes(p);
    out.input = std::max(out.input, if_tile);
    out.weight = std::max(out.weight, wt_tile);
    out.output = std::max(out.output, of_tile);
  }
  // Double buffering: ping-pong pairs on all three tile buffers (Fig. 1).
  out.input *= 2;
  out.weight *= 2;
  out.output *= 2;
  return out;
}

}  // namespace lcmm::hw
