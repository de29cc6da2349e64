#include "sim/tile_sim.hpp"

#include <algorithm>

#include "obs/scope.hpp"

namespace lcmm::sim {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

bool bit(std::uint8_t mask, core::TensorSource s) {
  return (mask >> static_cast<int>(s)) & 1u;
}

/// Pipeline state for the four contended resources plus the two-deep
/// ping-pong buffer dependence (loads for tile t reuse the buffer freed by
/// the compute of tile t-2).
struct Pipeline {
  double if_free = 0.0;
  double wt_free = 0.0;
  double of_free = 0.0;
  double comp_free = 0.0;
  double comp_end_minus1 = 0.0;
  double comp_end_minus2 = 0.0;
  double makespan = 0.0;

  TileSimResult* stats;

  double run_tile(double if_dur, double wt_dur, double comp_dur,
                  double res_dur, double of_dur) {
    const double load_gate = comp_end_minus2;  // buffer recycling
    const double if_done = if_dur > 0
                               ? (if_free = std::max(if_free, load_gate) + if_dur)
                               : load_gate;
    const double wt_done = wt_dur > 0
                               ? (wt_free = std::max(wt_free, load_gate) + wt_dur)
                               : load_gate;
    const double comp_start =
        std::max({if_done, wt_done, comp_free});
    const double comp_end = comp_start + comp_dur;
    comp_free = comp_end;
    comp_end_minus2 = comp_end_minus1;
    comp_end_minus1 = comp_end;
    stats->if_busy_s += if_dur;
    stats->wt_busy_s += wt_dur;
    stats->compute_busy_s += comp_dur;
    double end = comp_end;
    // The fused residual is read on the input-feature interface during
    // write-out and must complete before the store can merge.
    double store_gate = comp_end;
    if (res_dur > 0) {
      if_free = std::max(if_free, comp_end) + res_dur;
      stats->if_busy_s += res_dur;
      store_gate = if_free;
      end = if_free;
    }
    if (of_dur > 0) {
      of_free = std::max(of_free, store_gate) + of_dur;
      stats->of_busy_s += of_dur;
      end = of_free;
    }
    ++stats->num_tiles;
    makespan = std::max(makespan, end);
    return end;
  }
};

}  // namespace

TileSimResult simulate_layer_tiles(const hw::PerfModel& model,
                                   graph::LayerId id,
                                   std::uint8_t on_chip_mask) {
  const graph::ComputationGraph& graph = model.graph();
  const graph::Layer& layer = graph.layer(id);
  const graph::FeatureShape& in = graph.input_shape(id);
  const graph::FeatureShape& out = graph.own_output_shape(id);
  const hw::AcceleratorDesign& design = model.design();
  const hw::SystolicArrayConfig& array = design.array;
  const hw::TileConfig& tile = design.tile;
  const int bpe = hw::bytes_per_elem(design.precision);
  const double cycle_s = 1.0 / (design.freq_mhz * 1e6);
  const mem::DdrModel& ddr = model.ddr();

  TileSimResult result;
  Pipeline pipe;
  pipe.stats = &result;

  const bool if_off = !bit(on_chip_mask, core::TensorSource::kInput);
  const bool res_off = !bit(on_chip_mask, core::TensorSource::kResidual);
  const bool wt_off = !bit(on_chip_mask, core::TensorSource::kWeight);
  const bool of_off = !bit(on_chip_mask, core::TensorSource::kOutput);

  if (!layer.is_conv()) {
    // Pooling: a single streaming pass.
    const hw::LayerTiming& t = model.timing(id);
    pipe.run_tile(if_off ? t.if_s : 0.0, 0.0, t.compute_s, 0.0,
                  of_off ? t.of_s : 0.0);
    result.latency_s = pipe.makespan;
    return result;
  }

  const hw::LayerTileGeometry geom =
      layer_tile_geometry(graph, id, array, tile);
  const std::int64_t kk =
      static_cast<std::int64_t>(layer.conv.kernel_h) * layer.conv.kernel_w;

  // Bursts as in the analytical traffic model.
  const int stride = layer.conv.stride;
  const int in_tile_cols =
      std::min((tile.tw - 1) * stride + layer.conv.kernel_w, in.width);
  const double if_burst =
      static_cast<double>(std::min(tile.tc, in.channels)) * in_tile_cols * bpe;
  const double wt_burst = static_cast<double>(array.rows) *
                          std::min(tile.tc, geom.group_channels) * kk * bpe;
  const double of_burst =
      static_cast<double>(std::min(array.rows, out.channels)) * tile.tw * bpe;

  for (int m0 = 0; m0 < out.channels; m0 += array.rows) {
    const int m_t = std::min(array.rows, out.channels - m0);
    for (int h0 = 0; h0 < out.height; h0 += tile.th) {
      const int th_t = std::min(tile.th, out.height - h0);
      // Offset-aware halo clipping: padding rows/cols are generated on
      // chip and never fetched (matches hw::layer_tile_geometry).
      const int in_r0 = std::max(0, h0 * stride - layer.conv.pad_h);
      const int in_r1 = std::min(in.height - 1, (h0 + th_t - 1) * stride -
                                                    layer.conv.pad_h +
                                                    layer.conv.kernel_h - 1);
      const int in_rows = std::max(0, in_r1 - in_r0 + 1);
      for (int w0 = 0; w0 < out.width; w0 += tile.tw) {
        const int tw_t = std::min(tile.tw, out.width - w0);
        const int in_c0 = std::max(0, w0 * stride - layer.conv.pad_w);
        const int in_c1 = std::min(in.width - 1, (w0 + tw_t - 1) * stride -
                                                     layer.conv.pad_w +
                                                     layer.conv.kernel_w - 1);
        const int in_cols = std::max(0, in_c1 - in_c0 + 1);
        const std::int64_t px_steps =
            ceil_div(static_cast<std::int64_t>(th_t) * tw_t, array.cols);
        for (int c0 = 0; c0 < geom.group_channels; c0 += tile.tc) {
          const int c_t = std::min(tile.tc, geom.group_channels - c0);
          const bool last_c = c0 + tile.tc >= geom.group_channels;

          double if_dur = 0.0;
          if (if_off) {
            // Grouped convs fetch each covered group's slice: scale the
            // per-group channel tile by the groups this m-tile spans.
            const double group_factor =
                static_cast<double>(geom.channels_per_mtile) /
                geom.group_channels;
            const double bytes = static_cast<double>(c_t) * group_factor *
                                 in_rows * in_cols * bpe;
            if_dur = ddr.transfer_seconds(bytes, if_burst);
          }
          double wt_dur = 0.0;
          if (wt_off) {
            const double bytes = static_cast<double>(m_t) * c_t * kk * bpe;
            wt_dur = ddr.transfer_seconds(bytes, wt_burst);
          }
          const double comp_dur =
              static_cast<double>(px_steps * ceil_div(c_t * kk, array.simd) +
                                  array.rows + array.cols + array.simd) *
              cycle_s;
          double of_dur = 0.0;
          double res_dur = 0.0;
          if (last_c) {
            const double slice_bytes =
                static_cast<double>(m_t) * th_t * tw_t * bpe;
            if (of_off) of_dur = ddr.transfer_seconds(slice_bytes, of_burst);
            if (layer.has_residual() && res_off) {
              res_dur = ddr.transfer_seconds(slice_bytes, of_burst);
            }
          }
          pipe.run_tile(if_dur, wt_dur, comp_dur, res_dur, of_dur);
        }
      }
    }
  }
  result.latency_s = pipe.makespan;
  return result;
}

double tile_sim_total_latency(const hw::PerfModel& model,
                              const core::OnChipState& state) {
  LCMM_SPAN("tile_sim");
  double total = 0.0;
  std::int64_t tiles = 0;
  for (const graph::Layer& layer : model.graph().layers()) {
    const TileSimResult r =
        simulate_layer_tiles(model, layer.id, state.layer_mask(layer.id));
    total += r.latency_s;
    tiles += r.num_tiles;
  }
  LCMM_COUNT("layers", static_cast<std::int64_t>(model.graph().num_layers()));
  LCMM_COUNT("tiles", tiles);
  return total;
}

}  // namespace lcmm::sim
