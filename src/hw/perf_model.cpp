#include "hw/perf_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/scope.hpp"
#include "resil/error.hpp"

namespace lcmm::hw {

namespace {
std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Throughput of the standalone pooling unit, elements/cycle. Pooling does
/// not occupy the systolic array; a modest comparator tree suffices because
/// pooling layers are bandwidth-dominated anyway.
constexpr int kPoolLanes = 64;
}  // namespace

double LayerTiming::max_transfer() const {
  return std::max({if_s + res_s, wt_s, of_s});
}

double LayerTiming::umm_latency() const {
  return eq1_latency(compute_s, if_s, res_s, wt_s, of_s, 0);
}

PerfModel::PerfModel(const graph::ComputationGraph& graph,
                     AcceleratorDesign design)
    : graph_(&graph), design_(std::move(design)),
      ddr_(design_.device, design_.ddr_options) {
  LCMM_SPAN("perf_model");
  if (!design_.array.valid() || !design_.tile.valid() || design_.freq_mhz <= 0) {
    throw resil::OptionError(resil::Code::kBadArgument, "hw.perf_model",
                             "PerfModel: incomplete accelerator design");
  }
  if (design_.array.pixel_pack > 1 && design_.precision != Precision::kInt8) {
    throw resil::OptionError(
        resil::Code::kBadArgument, "hw.perf_model",
        "PerfModel: DSP pixel packing requires 8-bit precision");
  }
  timings_.reserve(graph.num_layers());
  for (const graph::Layer& layer : graph.layers()) {
    timings_.push_back(scale_to_clock(layer_cost(graph, layer.id, design_, ddr_),
                                      design_.freq_mhz));
  }
}

const LayerTiming& PerfModel::timing(graph::LayerId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= timings_.size()) {
    throw std::out_of_range("PerfModel::timing: bad layer id");
  }
  return timings_[static_cast<std::size_t>(id)];
}

std::int64_t px_steps(const ShapeKey& shape, int th, int tw,
                      int effective_cols) {
  const std::int64_t full_h = shape.out_height / th;
  const std::int64_t edge_h = shape.out_height % th;
  const std::int64_t full_w = shape.out_width / tw;
  const std::int64_t edge_w = shape.out_width % tw;
  const auto steps = [&](std::int64_t h, std::int64_t w) {
    return ceil_div(h * w, effective_cols);
  };
  std::int64_t total = full_h * full_w * steps(th, tw);
  if (edge_w > 0) total += full_h * steps(th, edge_w);
  if (edge_h > 0) total += full_w * steps(edge_h, tw);
  if (edge_h > 0 && edge_w > 0) total += steps(edge_h, edge_w);
  return total;
}

std::int64_t red_steps(const ShapeKey& shape, int tc, int simd) {
  // Depthwise convolutions (one channel per group) leave most SIMD lanes
  // idle: the well-known inefficiency of channel-vectorized arrays on
  // MobileNet-style layers.
  const int group_channels = shape.in_channels / shape.conv_groups;
  const std::int64_t kk =
      static_cast<std::int64_t>(shape.conv_kernel_h) * shape.conv_kernel_w;
  const std::int64_t edge = group_channels % tc;
  return (group_channels / tc) * ceil_div(tc * kk, simd) +
         (edge > 0 ? ceil_div(edge * kk, simd) : 0);
}

std::int64_t pool_cycles(const ShapeKey& shape) {
  const std::int64_t window =
      shape.pool_global
          ? static_cast<std::int64_t>(shape.in_height) * shape.in_width
          : static_cast<std::int64_t>(shape.pool_kernel) * shape.pool_kernel;
  return ceil_div(shape.out().elems() * window, kPoolLanes);
}

LayerCost layer_cost(const graph::ComputationGraph& graph, graph::LayerId id,
                     const AcceleratorDesign& design, const mem::DdrModel& ddr) {
  const ShapeKey shape = shape_key(graph, id);
  const SystolicArrayConfig& array = design.array;
  const TileConfig& tile = design.tile;
  const LayerTileGeometry geom = layer_tile_geometry(shape, array, tile);
  LayerCost c = stream_cost(shape, geom, design, ddr);
  c.cycles = shape.is_conv()
                 ? conv_cycles(geom.n_m,
                               px_steps(shape, tile.th, tile.tw,
                                        array.effective_cols()),
                               red_steps(shape, tile.tc, array.simd),
                               geom.total_tiles(), array)
                 : pool_cycles(shape);
  return c;
}

LayerCost stream_cost(const ShapeKey& shape, const LayerTileGeometry& geom,
                      const AcceleratorDesign& design,
                      const mem::DdrModel& ddr) {
  const int rows = design.array.rows;
  const TileConfig& tile = design.tile;
  const int bpe = bytes_per_elem(design.precision);
  const std::int64_t out_elems = shape.out().elems();

  LayerCost c;
  c.nominal_macs = shape.macs;

  // ---- off-chip traffic (uniform management) -------------------------------
  const int in_tile_cols =
      std::min((tile.tw - 1) * (shape.is_conv() ? shape.conv_stride : 1) +
                   (shape.is_conv() ? shape.conv_kernel_w : 1),
               shape.in_width);
  const double if_burst =
      static_cast<double>(std::min(tile.tc, shape.in_channels)) *
      in_tile_cols * bpe;

  // Fused residual stream: one extra read of the output-sized tensor on the
  // input-feature interface during write-out.
  if (shape.residual) {
    c.res_bytes = static_cast<double>(out_elems) * bpe;
    const double res_burst = static_cast<double>(rows) * tile.tw * bpe;
    c.res_s = ddr.transfer_seconds(c.res_bytes, res_burst);
  }

  // Output features: written exactly once (accumulation stays on chip).
  c.of_bytes = static_cast<double>(out_elems) * bpe;
  const double of_burst =
      static_cast<double>(std::min(rows, shape.out_channels)) * tile.tw * bpe;
  c.of_s = ddr.transfer_seconds(c.of_bytes, of_burst);

  if (!shape.is_conv()) {
    // Pooling sweeps its input exactly once.
    c.if_bytes = static_cast<double>(shape.in_channels) * geom.fetched_rows *
                 geom.fetched_cols * bpe;
    c.if_s = ddr.transfer_seconds(c.if_bytes, if_burst);
    return c;
  }

  // Convolution, output stationary: the input is re-fetched per m-tile and
  // the weights once per spatial tile.
  c.if_bytes = static_cast<double>(geom.n_m) * geom.channels_per_mtile *
               geom.fetched_rows * geom.fetched_cols * bpe;
  c.if_s = ddr.transfer_seconds(c.if_bytes, if_burst);
  const double wt_burst = static_cast<double>(rows) *
                          std::min(tile.tc, geom.group_channels) *
                          shape.conv_kernel_h * shape.conv_kernel_w * bpe;
  const double weights_once = static_cast<double>(shape.weight_elems) * bpe;
  c.wt_bytes = static_cast<double>(geom.spatial_tiles()) * weights_once;
  c.wt_s = ddr.transfer_seconds(c.wt_bytes, wt_burst);
  return c;
}

LayerTiming scale_to_clock(const LayerCost& cost, double freq_mhz) {
  return {cost, static_cast<double>(cost.cycles) * cycle_seconds(freq_mhz)};
}

double PerfModel::umm_total_latency() const {
  double total = 0.0;
  for (const LayerTiming& t : timings_) total += t.umm_latency();
  return total;
}

double PerfModel::total_nominal_ops() const {
  return 2.0 * static_cast<double>(graph_->total_macs());
}

double PerfModel::ops_per_sec(double latency_s) const {
  if (latency_s <= 0.0) {
    throw resil::OptionError(resil::Code::kBadArgument, "hw.perf_model",
                             "ops_per_sec: latency <= 0");
  }
  return total_nominal_ops() / latency_s;
}

}  // namespace lcmm::hw
