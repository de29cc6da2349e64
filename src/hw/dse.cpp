#include "hw/dse.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

#include "obs/scope.hpp"
#include "par/parallel_for.hpp"
#include "resil/error.hpp"
#include "resil/fault.hpp"
#include "util/logging.hpp"

namespace lcmm::hw {

namespace {

/// Deterministic argmin. Ties on latency break on DSP cost, then on menu
/// index — never on evaluation order — so serial and parallel runs pick
/// the same design bit for bit.
DseResult pick_best(const std::vector<DseCandidate>& menu,
                    const std::vector<double>& latencies,
                    const FpgaDevice& device, Precision precision,
                    double freq_mhz, const std::string& graph_name) {
  std::size_t best = 0;
  int best_cost = menu[0].array.dsp_cost(precision);
  std::int64_t ties_broken = 0;
  for (std::size_t i = 1; i < menu.size(); ++i) {
    // A NaN latency compares false both ways and would otherwise be
    // treated as an exact tie; reject non-finite candidates outright.
    if (!std::isfinite(latencies[i])) continue;
    const int cost = menu[i].array.dsp_cost(precision);
    if (!std::isfinite(latencies[best])) {
      // Only possible when candidate #0 was non-finite: the first finite
      // latency unconditionally takes over.
      best = i;
      best_cost = cost;
      continue;
    }
    if (latencies[i] > latencies[best]) continue;
    if (latencies[i] < latencies[best]) {
      best = i;
      best_cost = cost;
    } else if (cost < best_cost) {
      // Equal latency: prefer the cheaper array; equal cost keeps the
      // earlier menu index (the first-seen candidate).
      LCMM_DEBUG() << "DSE(" << graph_name << "): latency tie at "
                   << latencies[i] * 1e3 << " ms broken on DSP cost ("
                   << cost << " < " << best_cost << ") for candidate #" << i;
      best = i;
      best_cost = cost;
      ++ties_broken;
    }
  }
  if (ties_broken > 0) {
    LCMM_INFO() << "DSE(" << graph_name << "): " << ties_broken
                << " latency tie(s) broken on (DSP cost, menu index)";
  }

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
    const std::vector<Cost>& row = costs_[i];
    double total = 0.0;
    for (std::size_t l = 0; l < layer_class.size(); ++l) {
      const Cost& c = row[static_cast<std::size_t>(layer_class[l])];
      total += eq1_latency(static_cast<double>(c.cycles) * cycle_s, c.if_s,
                           c.res_s, c.wt_s, c.of_s,
                           on_chip_masks.empty() ? 0 : on_chip_masks[l]);
    }
    latencies[i] = total;
  }
  return pick_best(menu_, latencies, device_, precision_, freq, graph_name_);
}

Dse::Dse(FpgaDevice device, Precision precision, DseOptions options)
    : device_(std::move(device)), precision_(precision), options_(options) {
  if (options_.dsp_budget_fraction <= 0 || options_.dsp_budget_fraction > 1 ||
      options_.tile_bram_fraction <= 0 || options_.tile_bram_fraction > 1 ||
      options_.jobs < 0) {
    throw resil::OptionError(resil::Code::kBadOptions, "dse.options",
                             "Dse: bad options");
  }
}

int Dse::dsp_budget() const {
  return static_cast<int>(device_.dsp_total * options_.dsp_budget_fraction);
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
  return tile_candidates(graph, shape_classes(graph).representative, array);
}

std::vector<TileConfig> Dse::tile_candidates(
    const graph::ComputationGraph& graph,
    std::span<const graph::LayerId> representatives,
    const SystolicArrayConfig& array) const {
  static constexpr int kTc[] = {16, 32, 64, 128};
  static constexpr int kSpatial[] = {4, 7, 8, 14, 16, 17, 28};
  const std::int64_t bram_budget = static_cast<std::int64_t>(
      options_.tile_bram_fraction * device_.bram_bytes_total());
  std::vector<TileConfig> out;
  for (int tc : kTc) {
    if (tc < array.simd) continue;  // SIMD lanes must be fed within a tile
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
  std::vector<DseCandidate> out;
  for (const SystolicArrayConfig& array : array_candidates()) {
    for (const TileConfig& tile :
         tile_candidates(graph, classes.representative, array)) {
      out.push_back({array, tile});
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

  // Candidates are independent, so fill their table rows on the worker
  // pool; each row is written by exactly one task.
  const std::size_t num_classes = out.classes_.size();
  out.costs_.assign(out.menu_.size(), std::vector<DesignSpace::Cost>(num_classes));
  const mem::DdrModel ddr(device_);
  par::parallel_for(out.menu_.size(), options_.jobs, [&](std::size_t i) {
    AcceleratorDesign design;
    design.device = device_;
    design.precision = precision_;
    design.array = out.menu_[i].array;
    design.tile = out.menu_[i].tile;
    std::vector<DesignSpace::Cost>& row = out.costs_[i];
    for (std::size_t k = 0; k < num_classes; ++k) {
      const LayerCost cost =
          layer_cost(graph, out.classes_.representative[k], design, ddr);
      if (cost.num_orders != 1) {
        throw resil::CompileError(resil::Code::kInternal, "dse.explore",
                                  "menu design with a stationary buffer",
                                  graph.name());
      }
      row[k] = {cost.cycles, cost.orders[0].if_s, cost.res_s,
                cost.orders[0].wt_s, cost.of_s};
    }
  });
  LCMM_COUNT("shape_classes", static_cast<std::int64_t>(num_classes));
  LCMM_COUNT("cost_evals",
             static_cast<std::int64_t>(out.menu_.size() * num_classes));
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
