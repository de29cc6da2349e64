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

int group_channels(const ShapeKey& shape) {
  return shape.in_channels / (shape.is_conv() ? shape.conv_groups : 1);
}

RowTiles row_tiles(const ShapeKey& shape, int rows) {
  const int groups = shape.is_conv() ? shape.conv_groups : 1;
  RowTiles t;
  // Output-stationary array: the m-tile IS the PE row count.
  t.n_m = static_cast<int>(ceil_div(shape.out_channels, rows));
  // Channels an m-tile touches: its covered groups' slices only.
  const int m_per_group = std::max(1, shape.out_channels / groups);
  const int groups_per_mtile = std::min<int>(
      groups, static_cast<int>(ceil_div(std::min(rows, shape.out_channels),
                                        m_per_group)));
  t.channels_per_mtile =
      std::min(shape.in_channels, group_channels(shape) * groups_per_mtile);
  return t;
}

LayerTileGeometry layer_tile_counts(const ShapeKey& shape,
                                    const SystolicArrayConfig& array,
                                    const TileConfig& tile) {
  if (!array.valid() || !tile.valid()) {
    throw resil::OptionError(resil::Code::kBadArgument, "hw.tiling",
                             "layer_tile_geometry: invalid config");
  }
  LayerTileGeometry g;
  g.group_channels = group_channels(shape);
  const RowTiles m = row_tiles(shape, array.rows);
  g.n_m = m.n_m;
  g.channels_per_mtile = m.channels_per_mtile;
  g.n_c = static_cast<int>(ceil_div(g.group_channels, tile.tc));
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

std::int64_t input_tile_pixels(const ShapeKey& shape, int th, int tw) {
  const AxisParams ah = h_params(shape);
  const AxisParams aw = w_params(shape);
  const int in_th = std::min((th - 1) * ah.stride + ah.kernel, shape.in_height);
  const int in_tw = std::min((tw - 1) * aw.stride + aw.kernel, shape.in_width);
  return static_cast<std::int64_t>(in_th) * in_tw;
}

std::int64_t weight_tile_elems(const ShapeKey& shape, int tc) {
  if (!shape.is_conv()) return 0;
  return static_cast<std::int64_t>(std::min(tc, group_channels(shape))) *
         shape.conv_kernel_h * shape.conv_kernel_w;
}

TileBufferBytes tile_buffer_bytes(const ShapeKey& shape, int rows,
                                  const TileConfig& tile, Precision p) {
  const int bpe = bytes_per_elem(p);
  // Double buffering: ping-pong pairs on all three tile buffers (Fig. 1).
  TileBufferBytes out;
  out.input = 2 * std::min<std::int64_t>(tile.tc, shape.in_channels) *
              input_tile_pixels(shape, tile.th, tile.tw) * bpe;
  out.weight = 2 * static_cast<std::int64_t>(rows) *
               weight_tile_elems(shape, tile.tc) * bpe;
  out.output = 2 * static_cast<std::int64_t>(rows) * tile.th * tile.tw *
               accumulator_bytes(p);
  return out;
}

namespace {
/// Hashes the fields that tell most shape classes apart; equality on the
/// whole key still decides.
std::uint64_t shape_hash(const ShapeKey& k) {
  std::uint64_t h = static_cast<std::uint64_t>(k.macs);
  for (const std::int64_t v :
       {k.weight_elems, std::int64_t{k.in_channels},
        std::int64_t{k.out_channels}, std::int64_t{k.out_height},
        std::int64_t{k.out_width}}) {
    h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
  return h;
}
}  // namespace

ShapeClasses shape_classes(const graph::ComputationGraph& graph) {
  ShapeClasses out;
  out.layer_class.reserve(graph.num_layers());
  // Class ids in an open-addressed table of at least twice the layer
  // count, probed linearly from the top bits of the mixed hash.
  int bits = 4;
  while ((std::size_t{1} << bits) < 2 * graph.num_layers()) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<int> ids(mask + 1, -1);
  for (const graph::Layer& layer : graph.layers()) {
    const ShapeKey key = shape_key(graph, layer.id);
    std::size_t slot = (shape_hash(key) * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
    while (ids[slot] >= 0 &&
           out.shape[static_cast<std::size_t>(ids[slot])] != key) {
      slot = (slot + 1) & mask;
    }
    if (ids[slot] < 0) {
      ids[slot] = static_cast<int>(out.size());
      out.representative.push_back(layer.id);
      out.shape.push_back(key);
    }
    out.layer_class.push_back(ids[slot]);
  }
  return out;
}

}  // namespace lcmm::hw
