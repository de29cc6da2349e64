#include "hw/dse.hpp"

#include <cmath>
#include <map>
#include <optional>
#include <tuple>
#include <stdexcept>

#include "obs/scope.hpp"
#include "par/parallel_for.hpp"
#include "resil/error.hpp"
#include "resil/fault.hpp"
#include "util/logging.hpp"

namespace lcmm::hw {

namespace {

/// Fraction of device DSPs available to the PE array (Tab. 1 uses 83% for
/// ResNet/GoogLeNet).
constexpr double kDspBudgetFraction = 0.83;
/// Fraction of device BRAM available to the tile buffers. Uniform designs
/// keep tile buffers small (Tab. 2 reports 8-12% BRAM for UMM).
constexpr double kTileBramFraction = 0.15;

/// Deterministic argmin. Ties on latency break on DSP cost, then on menu
/// index — never on evaluation order — so serial and parallel runs pick
/// the same design bit for bit. Throws CompileError(kNoFeasibleDesign) if
/// no candidate has a finite latency.
DseResult pick_best(const std::vector<DseCandidate>& menu,
                    const std::vector<double>& latencies,
                    const FpgaDevice& device, Precision precision,
                    double freq_mhz, const std::string& graph_name) {
  std::optional<std::size_t> found;
  int best_cost = 0;
  std::int64_t ties_broken = 0;
  for (std::size_t i = 0; i < menu.size(); ++i) {
    // A NaN latency compares false both ways and would otherwise be
    // treated as an exact tie; reject non-finite candidates outright.
    if (!std::isfinite(latencies[i])) continue;
    const int cost = menu[i].array.dsp_cost(precision);
    if (!found || latencies[i] < latencies[*found]) {
      found = i;
      best_cost = cost;
      continue;
    }
    if (latencies[i] > latencies[*found]) continue;
    // Equal latency: prefer the cheaper array; equal cost keeps the
    // earlier menu index (the first-seen candidate).
    ++ties_broken;
    if (cost < best_cost) {
      LCMM_DEBUG() << "DSE(" << graph_name << "): latency tie at "
                   << latencies[i] * 1e3 << " ms broken on DSP cost ("
                   << cost << " < " << best_cost << ") for candidate #" << i;
      found = i;
      best_cost = cost;
    }
  }
  if (!found) {
    throw resil::CompileError(resil::Code::kNoFeasibleDesign, "dse.explore",
                              "no candidate has a finite objective latency",
                              graph_name);
  }
  LCMM_COUNT("ties_broken", ties_broken);
  if (ties_broken > 0) {
    LCMM_INFO() << "DSE(" << graph_name << "): " << ties_broken
                << " latency tie(s) broken on (DSP cost, menu index)";
  }
  const std::size_t best = *found;

  DseResult result;
  result.design.device = device;
  result.design.precision = precision;
  result.design.array = menu[best].array;
  result.design.tile = menu[best].tile;
  result.design.freq_mhz = freq_mhz;
  result.objective_latency_s = latencies[best];
  LCMM_INFO() << "DSE(" << graph_name << ", " << to_string(precision)
              << "): array " << result.design.array.to_string() << " tile "
              << result.design.tile.to_string() << " -> "
              << result.objective_latency_s * 1e3 << " ms ("
              << menu.size() << " candidates)";
  return result;
}

/// Index of `key` in first-appearance order; a new key records candidate
/// `i` as the one that computes its terms.
template <typename Key>
std::uint32_t key_index(std::map<Key, std::uint32_t>& ids,
                        std::vector<std::size_t>& first, const Key& key,
                        std::size_t i) {
  const auto [it, added] =
      ids.emplace(key, static_cast<std::uint32_t>(first.size()));
  if (added) first.push_back(i);
  return it->second;
}

}  // namespace

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
  k.weight_elems = graph.layer_weight_elems(id);
  k.macs = graph.layer_macs(id);
  return k;
}

ShapeClasses shape_classes(const graph::ComputationGraph& graph) {
  ShapeClasses out;
  out.layer_class.reserve(graph.num_layers());
  std::map<ShapeKey, int> ids;
  for (const graph::Layer& layer : graph.layers()) {
    const auto [it, added] = ids.emplace(shape_key(graph, layer.id),
                                         static_cast<int>(out.size()));
    if (added) out.representative.push_back(layer.id);
    out.layer_class.push_back(it->second);
  }
  return out;
}

DesignSpace::Cost DesignSpace::cell(std::size_t i, std::size_t k) const {
  const Streams& s = streams_.at(stream_key_.at(i)).at(k);
  return {cycles_.at(i).at(k), s.if_s, s.res_s, s.wt_s, s.of_s};
}

DseResult DesignSpace::argmin(bool heavy_uram_use,
                              std::span<const std::uint8_t> on_chip_masks) const {
  LCMM_SPAN("dse");
  LCMM_COUNT("argmins", 1);
  const std::vector<int>& layer_class = classes_.layer_class;
  if (!on_chip_masks.empty() && on_chip_masks.size() != layer_class.size()) {
    throw resil::OptionError(resil::Code::kBadArgument, "dse.explore",
                             "DesignSpace::argmin: one mask per layer");
  }
  const double freq = device_.clock_mhz(precision_, heavy_uram_use);
  const double cycle_s = cycle_seconds(freq);
  std::vector<double> latencies(menu_.size());
  for (std::size_t i = 0; i < menu_.size(); ++i) {
    const std::vector<std::int64_t>& cycles = cycles_[i];
    const std::vector<Streams>& streams = streams_[stream_key_[i]];
    double total = 0.0;
    for (std::size_t l = 0; l < layer_class.size(); ++l) {
      const auto k = static_cast<std::size_t>(layer_class[l]);
      const Streams& s = streams[k];
      total += eq1_latency(static_cast<double>(cycles[k]) * cycle_s, s.if_s,
                           s.res_s, s.wt_s, s.of_s,
                           on_chip_masks.empty() ? 0 : on_chip_masks[l]);
    }
    latencies[i] = total;
  }
  return pick_best(menu_, latencies, device_, precision_, freq, graph_name_);
}

Dse::Dse(FpgaDevice device, Precision precision, DseOptions options)
    : device_(std::move(device)), precision_(precision), options_(options) {
  if (options_.jobs < 0) {
    throw resil::OptionError(resil::Code::kBadOptions, "dse.options",
                             "Dse: jobs must be >= 0");
  }
}

int Dse::dsp_budget() const {
  return static_cast<int>(device_.dsp_total * kDspBudgetFraction);
}

std::vector<SystolicArrayConfig> Dse::array_candidates() const {
  // The menus follow [18]: power-of-two-ish row/simd counts and column
  // counts that divide common feature-map widths well. Row depth stops at
  // 32 — the output-stationary template accumulates partial sums down each
  // row, and deeper rows blow up the adder/banking depth (the published
  // designs use modest output-channel unroll).
  static constexpr int kRows[] = {8, 16, 32};
  static constexpr int kCols[] = {8, 11, 14, 16, 22, 32};
  static constexpr int kSimd[] = {4, 8, 16, 32};
  const int budget = dsp_budget();
  std::vector<int> packs = {1};
  if (options_.allow_int8_packing && precision_ == Precision::kInt8) {
    packs.push_back(2);
  }
  // One generator builds both menus: the fallback used to rebuild configs
  // from scratch without the pack dimension, silently costing int8 on
  // small devices its dual-packed candidates.
  const auto enumerate = [&](bool prune_dominated) {
    std::vector<SystolicArrayConfig> out;
    for (int pack : packs) {
      for (int r : kRows) {
        for (int c : kCols) {
          for (int s : kSimd) {
            const SystolicArrayConfig cfg{r, c, s, pack};
            const int cost = cfg.dsp_cost(precision_);
            if (cost > budget) continue;
            // Discard configs below half budget: they are strictly dominated
            // by a larger legal sibling and only slow the search down.
            if (prune_dominated && cost * 2 <= budget) continue;
            out.push_back(cfg);
          }
        }
      }
    }
    return out;
  };
  std::vector<SystolicArrayConfig> out = enumerate(/*prune_dominated=*/true);
  if (out.empty()) {
    // Tiny devices / fp32: accept anything that fits.
    out = enumerate(/*prune_dominated=*/false);
  }
  return out;
}

std::vector<TileConfig> Dse::tile_candidates(
    const graph::ComputationGraph& graph,
    const SystolicArrayConfig& array) const {
  std::vector<TileConfig> out =
      fitting_tiles(graph, shape_classes(graph).representative, array);
  // SIMD lanes must be fed within a tile.
  std::erase_if(out, [&](const TileConfig& t) { return t.tc < array.simd; });
  return out;
}

std::vector<TileConfig> Dse::fitting_tiles(
    const graph::ComputationGraph& graph,
    std::span<const graph::LayerId> representatives,
    const SystolicArrayConfig& array) const {
  static constexpr int kTc[] = {16, 32, 64, 128};
  static constexpr int kSpatial[] = {4, 7, 8, 14, 16, 17, 28};
  const std::int64_t bram_budget = static_cast<std::int64_t>(
      kTileBramFraction * device_.bram_bytes_total());
  std::vector<TileConfig> out;
  for (int tc : kTc) {
    for (int s : kSpatial) {
      const TileConfig tile{tc, s, s};
      if (tile_buffer_bytes(graph, representatives, array, tile, precision_)
              .total() <= bram_budget) {
        out.push_back(tile);
      }
    }
  }
  return out;
}

std::vector<DseCandidate> Dse::menu(const graph::ComputationGraph& graph,
                                    const ShapeClasses& classes) const {
  // Arrays with the same row count share their BRAM-feasible tiles.
  std::map<int, std::vector<TileConfig>> fitting;
  std::vector<DseCandidate> out;
  for (const SystolicArrayConfig& array : array_candidates()) {
    auto [it, added] = fitting.try_emplace(array.rows);
    if (added) it->second = fitting_tiles(graph, classes.representative, array);
    for (const TileConfig& tile : it->second) {
      if (tile.tc >= array.simd) out.push_back({array, tile});
    }
  }
  if (out.empty()) {
    throw resil::CompileError(
        resil::Code::kNoFeasibleDesign, "dse.explore",
        "no feasible design within the device budget", graph.name());
  }
  LCMM_COUNT("menu", static_cast<std::int64_t>(out.size()));
  return out;
}

DesignSpace Dse::space(const graph::ComputationGraph& graph) const {
  LCMM_SPAN("dse");
  resil::fault::hit("dse.explore");
  DesignSpace out;
  out.device_ = device_;
  out.precision_ = precision_;
  out.graph_name_ = graph.name();
  out.classes_ = shape_classes(graph);
  out.menu_ = menu(graph, out.classes_);
  const std::vector<DseCandidate>& menu = out.menu_;
  const std::vector<graph::LayerId>& reps = out.classes_.representative;
  const std::size_t num_classes = reps.size();

  // Key each candidate by what each cost term reads: the streams and tile
  // counts read (rows, tile), the pixel steps (effective cols, th, tw),
  // the reduction steps (simd, tc). Each term is computed once per key,
  // on the key's first candidate, by the helpers layer_cost is made of.
  std::map<std::tuple<int, int, int, int>, std::uint32_t> stream_ids;
  std::map<std::tuple<int, int, int>, std::uint32_t> px_ids;
  std::map<std::pair<int, int>, std::uint32_t> red_ids;
  std::vector<std::size_t> stream_first, px_first, red_first;
  std::vector<std::uint32_t> px_key(menu.size()), red_key(menu.size());
  out.stream_key_.resize(menu.size());
  for (std::size_t i = 0; i < menu.size(); ++i) {
    const auto& [array, tile] = menu[i];
    out.stream_key_[i] = key_index(
        stream_ids, stream_first,
        std::tuple{array.rows, tile.tc, tile.th, tile.tw}, i);
    px_key[i] = key_index(px_ids, px_first,
                          std::tuple{array.effective_cols(), tile.th, tile.tw},
                          i);
    red_key[i] = key_index(red_ids, red_first, std::pair{array.simd, tile.tc}, i);
  }
  const auto design_of = [&](std::size_t i) {
    AcceleratorDesign design;
    design.device = device_;
    design.precision = precision_;
    design.array = menu[i].array;
    design.tile = menu[i].tile;
    return design;
  };
  const int batch = AcceleratorDesign{}.batch;
  std::vector<char> is_conv(num_classes);
  std::size_t num_convs = 0;
  for (std::size_t k = 0; k < num_classes; ++k) {
    is_conv[k] = graph.layer(reps[k]).is_conv();
    num_convs += is_conv[k] ? 1 : 0;
  }

  // Streams and tile counts, the bulk of the work: one row per (rows,
  // tile) key, filled on the worker pool; each row is written by exactly
  // one task.
  struct TileCounts {
    std::int64_t n_m = 0;
    std::int64_t total = 0;
  };
  std::vector<std::vector<TileCounts>> tiles(stream_first.size());
  out.streams_.resize(stream_first.size());
  const mem::DdrModel ddr(device_);
  par::parallel_for(stream_first.size(), options_.jobs, [&](std::size_t x) {
    const AcceleratorDesign design = design_of(stream_first[x]);
    tiles[x].resize(num_classes);
    out.streams_[x].resize(num_classes);
    for (std::size_t k = 0; k < num_classes; ++k) {
      const LayerTileGeometry geom =
          layer_tile_geometry(graph, reps[k], design.array, design.tile);
      const LayerCost cost = stream_cost(graph, reps[k], geom, design, ddr);
      if (cost.num_orders != 1) {
        throw resil::CompileError(resil::Code::kInternal, "dse.explore",
                                  "menu design with a stationary buffer",
                                  graph.name());
      }
      out.streams_[x][k] = {cost.orders[0].if_s, cost.res_s,
                            cost.orders[0].wt_s, cost.of_s};
      tiles[x][k] = {geom.n_m, geom.total_tiles()};
    }
  });

  // Compute steps of the conv classes, once per key; pooling cycles read
  // no design input at all.
  const auto conv_terms = [&](const std::vector<std::size_t>& first,
                              auto term) {
    std::vector<std::vector<std::int64_t>> rows(first.size());
    for (std::size_t j = 0; j < first.size(); ++j) {
      rows[j].resize(num_classes);
      for (std::size_t k = 0; k < num_classes; ++k) {
        if (is_conv[k]) rows[j][k] = term(reps[k], menu[first[j]]);
      }
    }
    return rows;
  };
  const auto px = conv_terms(px_first, [&](graph::LayerId id,
                                           const DseCandidate& c) {
    return px_steps(graph, id, c.tile.th, c.tile.tw, c.array.effective_cols());
  });
  const auto red = conv_terms(red_first, [&](graph::LayerId id,
                                             const DseCandidate& c) {
    return red_steps(graph, id, c.tile.tc, c.array.simd);
  });
  std::vector<std::int64_t> pool(num_classes);
  for (std::size_t k = 0; k < num_classes; ++k) {
    if (!is_conv[k]) pool[k] = pool_cycles(graph, reps[k], batch);
  }

  // Each candidate's cycles from its keys' terms.
  out.cycles_.resize(menu.size());
  for (std::size_t i = 0; i < menu.size(); ++i) {
    const std::vector<TileCounts>& t = tiles[out.stream_key_[i]];
    std::vector<std::int64_t>& row = out.cycles_[i];
    row.resize(num_classes);
    for (std::size_t k = 0; k < num_classes; ++k) {
      row[k] = is_conv[k] ? conv_cycles(t[k].n_m, px[px_key[i]][k],
                                        red[red_key[i]][k], batch, t[k].total,
                                        menu[i].array)
                          : pool[k];
    }
  }
  LCMM_COUNT("shape_classes", static_cast<std::int64_t>(num_classes));
  LCMM_COUNT("cost_evals",
             static_cast<std::int64_t>(menu.size() * num_classes));
  LCMM_COUNT("cost_terms",
             static_cast<std::int64_t>(
                 stream_first.size() * num_classes +
                 (px_first.size() + red_first.size()) * num_convs +
                 (num_classes - num_convs)));
  return out;
}

DseResult Dse::explore(const graph::ComputationGraph& graph,
                       const Objective& objective) const {
  if (!objective) return space(graph).argmin(options_.heavy_uram_use);

  LCMM_SPAN("dse");
  resil::fault::hit("dse.explore");
  LCMM_COUNT("argmins", 1);
  const std::vector<DseCandidate> candidates = menu(graph, shape_classes(graph));
  const double freq = device_.clock_mhz(precision_, options_.heavy_uram_use);
  // Candidates are independent, so evaluate them on the worker pool; each
  // latency lands in its own slot, making the vector scheduling-invariant.
  const std::vector<double> latencies =
      par::parallel_map(candidates.size(), options_.jobs, [&](std::size_t i) {
        AcceleratorDesign design;
        design.device = device_;
        design.precision = precision_;
        design.array = candidates[i].array;
        design.tile = candidates[i].tile;
        design.freq_mhz = freq;
        return objective(design);
      });
  return pick_best(candidates, latencies, device_, precision_, freq,
                   graph.name());
}

}  // namespace lcmm::hw
