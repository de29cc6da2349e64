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
#include <span>
#include <string>

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

/// Double-buffered on-chip tile buffer requirements, in bytes, sized for the
/// worst layer of a network (the uniform part of the memory hierarchy).
struct TileBufferBytes {
  std::int64_t input = 0;
  std::int64_t weight = 0;
  std::int64_t output = 0;
  std::int64_t total() const { return input + weight + output; }
};

/// Computes the (double-buffered) tile buffer sizes the given network needs
/// under `tile` with array `array` at precision `p`.
TileBufferBytes tile_buffer_bytes(const graph::ComputationGraph& graph,
                                  const SystolicArrayConfig& array,
                                  const TileConfig& tile, Precision p);
/// The same, sized for the worst of `layers` only (the DSE passes one
/// representative per shape class: the sizes read nothing else).
TileBufferBytes tile_buffer_bytes(const graph::ComputationGraph& graph,
                                  std::span<const graph::LayerId> layers,
                                  const SystolicArrayConfig& array,
                                  const TileConfig& tile, Precision p);

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

/// layer_tile_geometry without the halo walk: every field but
/// fetched_rows and fetched_cols (left 0), from integer ceil-divisions
/// alone. The DSE's compute-cycle table reads nothing else.
LayerTileGeometry layer_tile_counts(const graph::ComputationGraph& graph,
                                    graph::LayerId id,
                                    const SystolicArrayConfig& array,
                                    const TileConfig& tile);

}  // namespace lcmm::hw
