#include "hw/tiling.hpp"

#include <algorithm>
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

AxisParams h_params(const ShapeKey& s) {
  if (s.is_conv()) return {s.conv_kernel_h, s.conv_stride};
  return {s.pool_global ? 1 : s.pool_kernel, s.pool_global ? 1 : s.pool_stride};
}
AxisParams w_params(const ShapeKey& s) {
  if (s.is_conv()) return {s.conv_kernel_w, s.conv_stride};
  return {s.pool_global ? 1 : s.pool_kernel, s.pool_global ? 1 : s.pool_stride};
}

int h_pad(const ShapeKey& s) {
  return s.is_conv() ? s.conv_pad_h : (s.pool_global ? 0 : s.pool_pad);
}
int w_pad(const ShapeKey& s) {
  return s.is_conv() ? s.conv_pad_w : (s.pool_global ? 0 : s.pool_pad);
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

ShapeKey shape_key(const graph::ComputationGraph& graph, graph::LayerId id) {
  const graph::Layer& layer = graph.layer(id);
  const graph::FeatureShape& in = graph.input_shape(id);
  const graph::FeatureShape& out = graph.own_output_shape(id);
  ShapeKey k;
  k.kind = layer.kind;
  if (layer.is_conv()) {
    k.conv_kernel_h = layer.conv.kernel_h;
    k.conv_kernel_w = layer.conv.kernel_w;
    k.conv_stride = layer.conv.stride;
    k.conv_pad_h = layer.conv.pad_h;
    k.conv_pad_w = layer.conv.pad_w;
    k.conv_groups = layer.conv.groups;
  } else {
    k.pool_kernel = layer.pool.kernel;
    k.pool_stride = layer.pool.stride;
    k.pool_pad = layer.pool.pad;
    k.pool_global = layer.pool.global;
  }
  k.in_channels = in.channels;
  k.in_height = in.height;
  k.in_width = in.width;
  k.out_channels = out.channels;
  k.out_height = out.height;
  k.out_width = out.width;
  k.residual = layer.has_residual();
  k.weight_elems = layer.weight_elems(in.channels);
  k.macs = layer.macs(in, out);
  return k;
}

LayerTileGeometry layer_tile_counts(const ShapeKey& shape,
                                    const SystolicArrayConfig& array,
                                    const TileConfig& tile) {
  if (!array.valid() || !tile.valid()) {
    throw resil::OptionError(resil::Code::kBadArgument, "hw.tiling",
                             "layer_tile_geometry: invalid config");
  }
  LayerTileGeometry g;
  const int groups = shape.is_conv() ? shape.conv_groups : 1;
  g.group_channels = shape.in_channels / groups;
  // Output-stationary array: the m-tile IS the PE row count.
  g.n_m = static_cast<int>(ceil_div(shape.out_channels, array.rows));
  g.n_c = static_cast<int>(ceil_div(g.group_channels, tile.tc));
  // Channels an m-tile touches: its covered groups' slices only.
  const int m_per_group = std::max(1, shape.out_channels / groups);
  const int groups_per_mtile = std::min<int>(
      groups, static_cast<int>(ceil_div(
                  std::min(array.rows, shape.out_channels), m_per_group)));
  g.channels_per_mtile =
      std::min(shape.in_channels, g.group_channels * groups_per_mtile);
  g.n_h = static_cast<int>(ceil_div(shape.out_height, tile.th));
  g.n_w = static_cast<int>(ceil_div(shape.out_width, tile.tw));
  return g;
}

LayerTileGeometry layer_tile_geometry(const graph::ComputationGraph& graph,
                                      graph::LayerId id,
                                      const SystolicArrayConfig& array,
                                      const TileConfig& tile) {
  return layer_tile_geometry(shape_key(graph, id), array, tile);
}

LayerTileGeometry layer_tile_geometry(const ShapeKey& shape,
                                      const SystolicArrayConfig& array,
                                      const TileConfig& tile) {
  LayerTileGeometry g = layer_tile_counts(shape, array, tile);
  const AxisParams ah = h_params(shape);
  const AxisParams aw = w_params(shape);
  g.fetched_rows = fetched_extent(shape.out_height, tile.th, ah.kernel,
                                  ah.stride, shape.in_height, h_pad(shape));
  g.fetched_cols = fetched_extent(shape.out_width, tile.tw, aw.kernel,
                                  aw.stride, shape.in_width, w_pad(shape));
  return g;
}

TileBufferBytes tile_buffer_bytes(const graph::ComputationGraph& graph,
                                  const SystolicArrayConfig& array,
                                  const TileConfig& tile, Precision p) {
  TileBufferBytes out;
  for (const graph::Layer& layer : graph.layers()) {
    const TileBufferBytes b =
        tile_buffer_bytes(shape_key(graph, layer.id), array.rows, tile, p);
    out.input = std::max(out.input, b.input);
    out.weight = std::max(out.weight, b.weight);
    out.output = std::max(out.output, b.output);
  }
  return out;
}

TileBufferBytes tile_buffer_bytes(const ShapeKey& shape, int rows,
                                  const TileConfig& tile, Precision p) {
  const int bpe = bytes_per_elem(p);
  const AxisParams ah = h_params(shape);
  const AxisParams aw = w_params(shape);
  const int in_th =
      std::min((tile.th - 1) * ah.stride + ah.kernel, shape.in_height);
  const int in_tw =
      std::min((tile.tw - 1) * aw.stride + aw.kernel, shape.in_width);
  const int c = std::min(tile.tc, shape.in_channels);
  TileBufferBytes out;
  out.input = static_cast<std::int64_t>(c) * in_th * in_tw * bpe;
  if (shape.is_conv()) {
    const int cg = std::min(tile.tc, shape.in_channels / shape.conv_groups);
    out.weight = static_cast<std::int64_t>(rows) * cg * shape.conv_kernel_h *
                 shape.conv_kernel_w * bpe;
  }
  out.output = static_cast<std::int64_t>(rows) * tile.th * tile.tw *
               accumulator_bytes(p);
  // Double buffering: ping-pong pairs on all three tile buffers (Fig. 1).
  out.input *= 2;
  out.weight *= 2;
  out.output *= 2;
  return out;
}

}  // namespace lcmm::hw
