// Loop-tiling configuration for the two-level tiled dataflow of Fig. 1.
//
// The outer loops stream tiles between DRAM and the on-chip tile buffers:
//   for m-tile (rows output channels at a time — the array is
//                output-stationary, so the m-tile equals the PE row count):
//     for (h, w) spatial tile of th x tw output pixels:
//       for c-tile of tc input channels:                      (accumulate)
//         load if-tile, load wt-tile  ->  compute
//       store of-tile
//
// This nest fixes the off-chip traffic of uniform memory management:
//   input features are re-loaded once per m-tile (nM trips, plus halo),
//   weights are re-loaded once per spatial tile (nH*nW trips),
//   output features are stored exactly once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "hw/precision.hpp"
#include "hw/systolic.hpp"

namespace lcmm::hw {

struct TileConfig {
  int tc = 0;  // input-channel tile (multiple of simd)
  int th = 0;  // output rows per spatial tile
  int tw = 0;  // output cols per spatial tile

  bool valid() const { return tc > 0 && th > 0 && tw > 0; }
  std::string to_string() const {
    return "tc" + std::to_string(tc) + "_th" + std::to_string(th) + "_tw" +
           std::to_string(tw);
  }
  bool operator==(const TileConfig&) const = default;
};

/// Every layer field the per-layer cost and the tile-buffer sizes read.
/// Layers with equal keys cost the same under every design, wherever they
/// sit in the network. Fields a layer kind does not read stay zero. The
/// term helpers below take it so that a caller reads the graph once per
/// layer (or once per shape class) and every term after that is plain
/// arithmetic.
struct ShapeKey {
  graph::LayerKind kind = graph::LayerKind::kConv;
  int conv_kernel_h = 0;
  int conv_kernel_w = 0;
  int conv_stride = 0;
  int conv_pad_h = 0;
  int conv_pad_w = 0;
  int conv_groups = 0;
  int pool_kernel = 0;
  int pool_stride = 0;
  int pool_pad = 0;
  bool pool_global = false;
  int in_channels = 0;
  int in_height = 0;
  int in_width = 0;
  int out_channels = 0;
  int out_height = 0;
  int out_width = 0;
  bool residual = false;
  std::int64_t weight_elems = 0;
  std::int64_t macs = 0;

  bool is_conv() const { return kind == graph::LayerKind::kConv; }
  graph::FeatureShape out() const {
    return {out_channels, out_height, out_width};
  }
  auto operator<=>(const ShapeKey&) const = default;
};

ShapeKey shape_key(const graph::ComputationGraph& graph, graph::LayerId id);

/// The graph's layers grouped by ShapeKey.
struct ShapeClasses {
  /// Class of each layer, indexed by LayerId.
  std::vector<int> layer_class;
  /// First layer of each class; class ids follow first appearance.
  std::vector<graph::LayerId> representative;
  /// Shape of each class, by class id: all any cost term reads.
  std::vector<ShapeKey> shape;

  std::size_t size() const { return representative.size(); }
};

ShapeClasses shape_classes(const graph::ComputationGraph& graph);

/// Double-buffered on-chip tile buffer requirements, in bytes, sized for the
/// worst layer of a network (the uniform part of the memory hierarchy).
struct TileBufferBytes {
  std::int64_t input = 0;
  std::int64_t weight = 0;
  std::int64_t output = 0;
  std::int64_t total() const { return input + weight + output; }
  bool operator==(const TileBufferBytes&) const = default;
};

/// Computes the (double-buffered) tile buffer sizes the given network needs
/// under `tile` with array `array` at precision `p`.
TileBufferBytes tile_buffer_bytes(const graph::ComputationGraph& graph,
                                  const SystolicArrayConfig& array,
                                  const TileConfig& tile, Precision p);
/// The same for one layer of shape `shape` on an array of `rows` PE rows
/// (the sizes read the array through nothing else). The input term reads
/// (shape, tc, th, tw), the weight term is `rows` times a (shape, tc)
/// term, and the output term is `rows` x th x tw x accumulator bytes for
/// every layer; the DSE's menu filter takes its maxima axis by axis.
TileBufferBytes tile_buffer_bytes(const ShapeKey& shape, int rows,
                                  const TileConfig& tile, Precision p);

// tile_buffer_bytes' per-axis terms, in elements of one buffer of a
// ping-pong pair: input = min(tc, in_channels) x input_tile_pixels,
// weight = rows x weight_tile_elems, output = rows x th x tw.

/// Input pixels one th x tw output tile reads, halo included, each extent
/// clipped to the input.
std::int64_t input_tile_pixels(const ShapeKey& shape, int th, int tw);
/// Weights one PE row reads per tc-channel tile (0 for a pooling layer).
std::int64_t weight_tile_elems(const ShapeKey& shape, int tc);

/// Input extent fetched along one axis, summed over the tiles of `tile`
/// outputs that cover `out_extent` outputs of a window of `kernel` at
/// `stride` with `pad`, each clipped to the real input range [0,
/// in_extent) (padding is generated on-chip and never fetched). Exact
/// closed form: the full tiles that no padding edge clips are counted in
/// one product; only the clipped head and tail tiles are evaluated singly.
std::int64_t fetched_extent(int out_extent, int tile, int kernel, int stride,
                            int in_extent, int pad);

/// Per-layer tile geometry used by both the performance model and the
/// traffic model.
struct LayerTileGeometry {
  int n_m = 1;        // output-channel tiles (trip count for input features)
  int n_c = 1;        // input-channel tiles (within one group)
  int n_h = 1;        // spatial tiles, vertical
  int n_w = 1;        // spatial tiles, horizontal
  /// Input channels each m-tile must fetch: the whole input for dense
  /// convolution, only the covered groups' channels for grouped/depthwise.
  int channels_per_mtile = 0;
  /// Reduction channels per output (in_channels / groups).
  int group_channels = 0;
  /// Total input-feature rows/cols actually fetched across spatial tiles
  /// (counts halo overlap, clipped to the real input extent).
  std::int64_t fetched_rows = 0;
  std::int64_t fetched_cols = 0;

  std::int64_t spatial_tiles() const {
    return static_cast<std::int64_t>(n_h) * n_w;
  }
  std::int64_t total_tiles() const {
    return static_cast<std::int64_t>(n_m) * n_c * spatial_tiles();
  }
};

LayerTileGeometry layer_tile_geometry(const graph::ComputationGraph& graph,
                                      graph::LayerId id,
                                      const SystolicArrayConfig& array,
                                      const TileConfig& tile);
LayerTileGeometry layer_tile_geometry(const ShapeKey& shape,
                                      const SystolicArrayConfig& array,
                                      const TileConfig& tile);

/// Reduction channels per output: in_channels / groups (pooling: all).
int group_channels(const ShapeKey& shape);

/// The fields of LayerTileGeometry that the PE row count determines.
struct RowTiles {
  int n_m = 1;
  int channels_per_mtile = 0;
};
RowTiles row_tiles(const ShapeKey& shape, int rows);

/// layer_tile_geometry without the halo walk: every field but
/// fetched_rows and fetched_cols (left 0), from integer ceil-divisions
/// alone. The DSE's compute cycles read nothing else. Of the array
/// it reads only `rows`: n_m and channels_per_mtile read (shape, rows),
/// n_c reads (shape, tc) and n_h, n_w read (shape, th, tw).
LayerTileGeometry layer_tile_counts(const ShapeKey& shape,
                                    const SystolicArrayConfig& array,
                                    const TileConfig& tile);

}  // namespace lcmm::hw
