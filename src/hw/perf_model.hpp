// Analytical per-layer performance model of the systolic-array accelerator,
// implementing the paper's Eq. 1 latency semantics:
//
//   lat(i) = max( lat_c(i),  lat_d(i) for every tensor d still off-chip )
//
// Compute and the three DRAM streams (input features — which also carry a
// fused residual read — weights, and output features) run concurrently via
// double buffering, so a layer's latency is the maximum of the four terms.
// LCMM's whole premise is removing transfer terms from this max by giving
// tensors persistent on-chip buffers.
#pragma once

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"
#include "hw/device.hpp"
#include "hw/systolic.hpp"
#include "hw/tiling.hpp"
#include "mem/ddr.hpp"

namespace lcmm::hw {

/// A fully specified accelerator design point (the DSE's output).
struct AcceleratorDesign {
  FpgaDevice device;
  Precision precision = Precision::kInt8;
  SystolicArrayConfig array;
  TileConfig tile;
  double freq_mhz = 0.0;

  double peak_ops_per_sec() const { return array.peak_ops_per_sec(freq_mhz); }
};

/// Stream bits of an on-chip mask: bit k set == stream k is on chip, in
/// core::TensorSource order (input, residual, weight, output).
inline constexpr std::uint8_t kOnChipInput = 1u << 0;
inline constexpr std::uint8_t kOnChipResidual = 1u << 1;
inline constexpr std::uint8_t kOnChipWeight = 1u << 2;
inline constexpr std::uint8_t kOnChipOutput = 1u << 3;

/// Eq. 1 latency of one layer with the streams in `on_chip_mask` moved on
/// chip (their transfer terms leave the max). The input-feature interface
/// carries both the main input and the fused residual stream, so their
/// off-chip times add. Mask 0 is the UMM latency. The one formula behind
/// LayerTiming::umm_latency, core::LatencyTables, the DSE objectives and
/// the timeline simulator's base latency per layer.
inline double eq1_latency(double compute_s, double if_s, double res_s,
                          double wt_s, double of_s, std::uint8_t on_chip_mask) {
  const double if_term = ((on_chip_mask & kOnChipInput) ? 0.0 : if_s) +
                         ((on_chip_mask & kOnChipResidual) ? 0.0 : res_s);
  const double wt_term = (on_chip_mask & kOnChipWeight) ? 0.0 : wt_s;
  const double of_term = (on_chip_mask & kOnChipOutput) ? 0.0 : of_s;
  return std::max({compute_s, if_term, wt_term, of_term});
}

/// Seconds per compute cycle at `freq_mhz`.
inline double cycle_seconds(double freq_mhz) { return 1.0 / (freq_mhz * 1e6); }

/// The clock-free part of a layer's timing on the output-stationary
/// template at batch 1: compute cycles, plus the bytes and DDR transfer
/// seconds of each stream. It depends on the layer's shape and the
/// design's array, tile, precision and DDR options — never on its clock,
/// so one cost serves every clock the DSE evaluates.
struct LayerCost {
  std::int64_t cycles = 0;        // compute cycles incl. padding waste
  std::int64_t nominal_macs = 0;  // algorithmic MACs

  double if_bytes = 0.0;
  double if_s = 0.0;   // main input-feature stream transfer time
  double res_bytes = 0.0;
  double res_s = 0.0;  // fused residual stream (shares the if interface)
  double wt_bytes = 0.0;
  double wt_s = 0.0;   // weight stream
  double of_bytes = 0.0;
  double of_s = 0.0;   // output-feature stream
};

/// Per-layer timing and traffic under uniform (all-off-chip) management:
/// the layer's cost at the design's clock.
struct LayerTiming : LayerCost {
  double compute_s = 0.0;  // lat_c

  /// Eq. 1 with everything off-chip.
  double umm_latency() const;
  /// Largest off-chip transfer term.
  double max_transfer() const;
  bool memory_bound() const { return max_transfer() > compute_s; }
};

/// Clock-free cost of a layer of shape `shape` under `design` (its
/// freq_mhz is unused), assembled from the term helpers below.
LayerCost layer_cost(const ShapeKey& shape, const AcceleratorDesign& design,
                     const mem::DdrModel& ddr);
/// The same for layer `id`: layer_cost(shape_key(graph, id), ...).
LayerCost layer_cost(const graph::ComputationGraph& graph, graph::LayerId id,
                     const AcceleratorDesign& design, const mem::DdrModel& ddr);

// Term helpers: the one definition of every part of layer_cost. Each reads
// only the inputs it takes, so Dse::space() evaluates each once per
// distinct input and shares it across the candidates that agree on it.
// They take the layer's ShapeKey (shape_key(graph, id)) and are plain
// arithmetic on it.

/// Pixel steps of one m-tile of a conv: Σ over its th x tw output tiles
/// of ceil(tile pixels / cols). Boundary tiles process their true extents;
/// only the pixel-group granularity rounds up. Exact closed form: full
/// tiles x one full tile, plus the h-edge, w-edge and corner tiles.
std::int64_t px_steps(const ShapeKey& shape, int th, int tw, int cols);

/// Reduction steps of a conv: Σ over its tc-channel tiles of the
/// per-group input channels of ceil(channels x kernel area / simd), in
/// closed form (full tiles plus the remainder tile).
std::int64_t red_steps(const ShapeKey& shape, int tc, int simd);

/// Compute cycles of a conv from its terms: n_m x px x red, plus pipeline
/// fill and drain per tile invocation. Idle PE rows on the last
/// output-channel tile are paid in full (output-stationary array). Linear
/// in n_m x px x red and in total_tiles, which Dse::space uses to sum a
/// candidate's layers at once.
inline std::int64_t conv_cycles(std::int64_t n_m, std::int64_t px_steps,
                                std::int64_t red_steps,
                                std::int64_t total_tiles,
                                const SystolicArrayConfig& array) {
  return n_m * px_steps * red_steps +
         total_tiles * (array.rows + array.cols + array.simd);
}

/// Compute cycles of a pooling layer on the standalone pooling unit.
std::int64_t pool_cycles(const ShapeKey& shape);

/// Every field of layer_cost except `cycles`: the DDR streams. Of the
/// array it reads only `rows`; of `geom` it reads every field but n_c.
/// `geom` is layer_tile_geometry(shape, design.array, design.tile).
LayerCost stream_cost(const ShapeKey& shape, const LayerTileGeometry& geom,
                      const AcceleratorDesign& design,
                      const mem::DdrModel& ddr);

/// The clock step: the cost plus its compute time at `freq_mhz`.
LayerTiming scale_to_clock(const LayerCost& cost, double freq_mhz);

/// One design's per-layer timings on one graph, built in an obs span
/// "perf_model"; a compile builds one per design and passes it down.
class PerfModel {
 public:
  /// Evaluates layer_cost once per class of `classes` (the graph's layers
  /// grouped by shape, as its design space holds them) and gives each
  /// layer its class's timing.
  PerfModel(const graph::ComputationGraph& graph, AcceleratorDesign design,
            const ShapeClasses& classes);
  /// The same with every layer a class of its own.
  PerfModel(const graph::ComputationGraph& graph, AcceleratorDesign design);

  const AcceleratorDesign& design() const { return design_; }
  const graph::ComputationGraph& graph() const { return *graph_; }
  const mem::DdrModel& ddr() const { return ddr_; }

  const LayerTiming& timing(graph::LayerId id) const;

  /// Sum of Eq. 1 latencies over all layers (the UMM baseline).
  double umm_total_latency() const;
  /// 2 * algorithmic MACs of the whole network.
  double total_nominal_ops() const;
  /// Achieved throughput in ops/s for a given end-to-end latency.
  double ops_per_sec(double latency_s) const;

 private:
  const graph::ComputationGraph* graph_;
  AcceleratorDesign design_;
  mem::DdrModel ddr_;
  std::vector<LayerTiming> timings_;
};

}  // namespace lcmm::hw
