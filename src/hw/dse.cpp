#include "hw/dse.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

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

/// The menu axes. The menus follow [18]: power-of-two-ish row/simd counts
/// and column counts that divide common feature-map widths well. Row depth
/// stops at 32 — the output-stationary template accumulates partial sums
/// down each row, and deeper rows blow up the adder/banking depth (the
/// published designs use modest output-channel unroll). Tiles are square.
constexpr int kRows[] = {8, 16, 32};
constexpr int kCols[] = {8, 11, 14, 16, 22, 32};
constexpr int kSimd[] = {4, 8, 16, 32};
constexpr int kTc[] = {16, 32, 64, 128};
constexpr int kSpatial[] = {4, 7, 8, 14, 16, 17, 28};
constexpr int kMaxPixelPack = 2;

/// Position of `value` on a menu axis.
template <std::size_t N>
std::size_t axis_index(const int (&axis)[N], int value) {
  return static_cast<std::size_t>(std::find(axis, axis + N, value) - axis);
}

/// The lexicographic minimum of (latency, DSP cost, menu index) over the
/// finite latencies offered. Neither the winner nor the tie count depends
/// on the order of the offers, so serial, parallel and pruned scans pick
/// the same design bit for bit.
class Incumbent {
 public:
  Incumbent(const std::vector<DseCandidate>& menu, Precision precision)
      : menu_(menu), precision_(precision) {}

  void offer(std::size_t i, double latency) {
    // A NaN latency compares false both ways and would otherwise be
    // treated as an exact tie; reject non-finite candidates outright.
    if (!std::isfinite(latency)) return;
    const int cost = menu_[i].array.dsp_cost(precision_);
    if (!found_ || latency < latency_) {
      found_ = true;
      index_ = i;
      latency_ = latency;
      cost_ = cost;
      tied_ = 1;
      return;
    }
    if (latency > latency_) return;
    // Equal latency: prefer the cheaper array, then the lower menu index.
    ++tied_;
    if (std::pair{cost, i} < std::pair{cost_, index_}) {
      LCMM_DEBUG() << "DSE: latency tie at " << latency * 1e3
                   << " ms: candidate #" << i << " (" << cost
                   << " DSPs) over #" << index_ << " (" << cost_ << " DSPs)";
      index_ = i;
      cost_ = cost;
    }
  }

  bool found() const { return found_; }
  double latency() const { return latency_; }

  /// The winner at `freq_mhz`. Throws CompileError(kNoFeasibleDesign) if
  /// no finite latency was offered.
  DseResult result(const FpgaDevice& device, double freq_mhz,
                   const std::string& graph_name) const {
    if (!found_) {
      throw resil::CompileError(resil::Code::kNoFeasibleDesign, "dse.explore",
                                "no candidate has a finite objective latency",
                                graph_name);
    }
    const std::int64_t ties_broken = tied_ - 1;
    LCMM_COUNT("ties_broken", ties_broken);
    if (ties_broken > 0) {
      LCMM_INFO() << "DSE(" << graph_name << "): " << ties_broken
                  << " latency tie(s) broken on (DSP cost, menu index)";
    }
    DseResult result;
    result.design.device = device;
    result.design.precision = precision_;
    result.design.array = menu_[index_].array;
    result.design.tile = menu_[index_].tile;
    result.design.freq_mhz = freq_mhz;
    result.objective_latency_s = latency_;
    LCMM_INFO() << "DSE(" << graph_name << ", " << to_string(precision_)
                << "): array " << result.design.array.to_string() << " tile "
                << result.design.tile.to_string() << " -> "
                << result.objective_latency_s * 1e3 << " ms ("
                << menu_.size() << " candidates)";
    return result;
  }

 private:
  const std::vector<DseCandidate>& menu_;
  Precision precision_;
  bool found_ = false;
  std::size_t index_ = 0;
  double latency_ = 0.0;
  int cost_ = 0;
  /// Offers tied with the current best latency, the best included.
  std::int64_t tied_ = 0;
};

/// First-appearance ids over a directly indexed key space.
class KeyIds {
 public:
  explicit KeyIds(std::size_t slots) : ids_(slots, kNone) {}

  /// Id of the key in `slot`; a new key records candidate `i` as the one
  /// that computes its terms.
  std::uint32_t id(std::size_t slot, std::size_t i) {
    std::uint32_t& id = ids_.at(slot);
    if (id == kNone) {
      id = static_cast<std::uint32_t>(first.size());
      first.push_back(i);
    }
    return id;
  }

  /// The first candidate of each key, by id.
  std::vector<std::size_t> first;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> ids_;
};

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
  const Streams& s = streams(i).at(k);
  return {cycles_.at(i).at(k), s.if_s, s.res_s, s.wt_s, s.of_s};
}

double DesignSpace::latency_bound(std::size_t i, bool heavy_uram_use) const {
  if (i >= menu_.size()) {
    throw std::out_of_range("DesignSpace::latency_bound: bad candidate");
  }
  return bound(i, cycle_seconds(device_.clock_mhz(precision_, heavy_uram_use)));
}

double DesignSpace::bound(std::size_t i, double cycle_s) const {
  // With u = 2^-53: layer l's Eq. 1 term is at least fl(c_l x cycle_s) >=
  // c_l x cycle_s x (1 - u), and n rounded additions of nonnegative terms
  // lose at most a factor (1 - u)^n, so the layer-order sum is at least
  // C x cycle_s x (1 - u)^(n+1). The four roundings here gain at most
  // (1 + u)^4; a shrink of (2n + 8)u covers both.
  const double shrink =
      1.0 - static_cast<double>(classes_.layer_class.size() + 4) * 0x1p-52;
  return static_cast<double>(compute_cycles_[i]) * cycle_s * shrink;
}

const std::vector<DesignSpace::Streams>& DesignSpace::streams(
    std::size_t i) const {
  const std::uint32_t x = stream_key_.at(i);
  if (streams_[x].empty()) fill_rows({x});
  return streams_[x];
}

void DesignSpace::fill_rows(const std::vector<std::uint32_t>& keys) const {
  const std::vector<graph::LayerId>& reps = classes_.representative;
  const mem::DdrModel ddr(device_);
  // Each row is built aside and assigned whole by one task, so a task that
  // fails leaves its row empty for the next caller to fill.
  par::parallel_for(keys.size(), jobs_, [&](std::size_t j) {
    const std::uint32_t x = keys[j];
    const DseCandidate& c = menu_[stream_first_[x]];
    AcceleratorDesign design;
    design.device = device_;
    design.precision = precision_;
    design.array = c.array;
    design.tile = c.tile;
    std::vector<Streams> row(reps.size());
    for (std::size_t k = 0; k < reps.size(); ++k) {
      const LayerTileGeometry geom =
          layer_tile_geometry(*graph_, reps[k], c.array, c.tile);
      const LayerCost cost = stream_cost(*graph_, reps[k], geom, design, ddr);
      if (cost.num_orders != 1) {
        throw resil::CompileError(resil::Code::kInternal, "dse.explore",
                                  "menu design with a stationary buffer",
                                  graph_->name());
      }
      row[k] = {cost.orders[0].if_s, cost.res_s, cost.orders[0].wt_s,
                cost.of_s};
    }
    streams_[x] = std::move(row);
    LCMM_COUNT("stream_rows", 1);
    LCMM_COUNT("cost_terms", static_cast<std::int64_t>(reps.size()));
  });
}

double DesignSpace::latency(std::size_t i, double cycle_s,
                            std::span<const std::uint8_t> on_chip_masks) const {
  const std::vector<int>& layer_class = classes_.layer_class;
  const std::vector<std::int64_t>& cycles = cycles_[i];
  const std::vector<Streams>& row = streams(i);
  double total = 0.0;
  for (std::size_t l = 0; l < layer_class.size(); ++l) {
    const auto k = static_cast<std::size_t>(layer_class[l]);
    const Streams& s = row[k];
    total += eq1_latency(static_cast<double>(cycles[k]) * cycle_s, s.if_s,
                         s.res_s, s.wt_s, s.of_s,
                         on_chip_masks.empty() ? 0 : on_chip_masks[l]);
  }
  return total;
}

DseResult DesignSpace::argmin(bool heavy_uram_use,
                              std::span<const std::uint8_t> on_chip_masks) const {
  LCMM_SPAN("dse");
  LCMM_COUNT("argmins", 1);
  if (!on_chip_masks.empty() &&
      on_chip_masks.size() != classes_.layer_class.size()) {
    throw resil::OptionError(resil::Code::kBadArgument, "dse.explore",
                             "DesignSpace::argmin: one mask per layer");
  }
  const double freq = device_.clock_mhz(precision_, heavy_uram_use);
  const double cycle_s = cycle_seconds(freq);

  // The first candidate's latency caps every bound the walk below can
  // reach, so fill the rows of every candidate under it in one parallel
  // pass (all of them if that latency is not finite).
  const std::uint32_t first = scan_order_.front();
  const double cap = latency(first, cycle_s, on_chip_masks);
  std::vector<std::uint32_t> rows;
  std::vector<char> queued(streams_.size());
  for (const std::uint32_t i : scan_order_) {
    if (std::isfinite(cap) && bound(i, cycle_s) > cap) break;
    const std::uint32_t x = stream_key_[i];
    if (streams_[x].empty() && !queued[x]) {
      queued[x] = 1;
      rows.push_back(x);
    }
  }
  fill_rows(rows);

  // Bounds rise along the scan order, so once one exceeds the best latency
  // no later candidate can tie or beat it.
  Incumbent best(menu_, precision_);
  best.offer(first, cap);
  std::int64_t evaluated = 1;
  for (std::size_t p = 1; p < scan_order_.size(); ++p) {
    const std::uint32_t i = scan_order_[p];
    if (best.found() && bound(i, cycle_s) > best.latency()) break;
    best.offer(i, latency(i, cycle_s, on_chip_masks));
    ++evaluated;
  }
  LCMM_COUNT("candidates_evaluated", evaluated);
  return best.result(device_, freq, graph_->name());
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
  const int budget = dsp_budget();
  std::vector<int> packs = {1};
  if (options_.allow_int8_packing && precision_ == Precision::kInt8) {
    packs.push_back(kMaxPixelPack);
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
  out.graph_ = &graph;
  out.device_ = device_;
  out.precision_ = precision_;
  out.jobs_ = options_.jobs;
  out.classes_ = shape_classes(graph);
  out.menu_ = menu(graph, out.classes_);
  const std::vector<DseCandidate>& menu = out.menu_;
  const std::vector<graph::LayerId>& reps = out.classes_.representative;
  const std::size_t num_classes = reps.size();

  // Key each candidate by what each cost term reads: the streams read
  // (rows, tile), the pixel steps (effective cols, th, tw), the reduction
  // steps (simd, tc), and the tile counts factor into n_m (rows), n_c (tc)
  // and n_h x n_w (th, tw). Each term is computed once per key, on the
  // key's first candidate, by the helpers layer_cost is made of. The keys
  // index the menu axes directly (menu tiles are square).
  constexpr std::size_t kNumTc = std::size(kTc);
  constexpr std::size_t kNumSpatial = std::size(kSpatial);
  KeyIds stream_ids(std::size(kRows) * kNumTc * kNumSpatial);
  KeyIds px_ids((kMaxPixelPack * std::ranges::max(kCols) + 1) * kNumSpatial);
  KeyIds red_ids(std::size(kSimd) * kNumTc);
  KeyIds m_ids(std::size(kRows)), c_ids(kNumTc), hw_ids(kNumSpatial);
  std::vector<std::uint32_t> px_key(menu.size()), red_key(menu.size()),
      m_key(menu.size()), c_key(menu.size()), hw_key(menu.size());
  out.stream_key_.resize(menu.size());
  for (std::size_t i = 0; i < menu.size(); ++i) {
    const auto& [array, tile] = menu[i];
    const std::size_t rows = axis_index(kRows, array.rows);
    const std::size_t tc = axis_index(kTc, tile.tc);
    const std::size_t spatial = axis_index(kSpatial, tile.th);
    out.stream_key_[i] =
        stream_ids.id((rows * kNumTc + tc) * kNumSpatial + spatial, i);
    px_key[i] = px_ids.id(
        static_cast<std::size_t>(array.effective_cols()) * kNumSpatial + spatial,
        i);
    red_key[i] = red_ids.id(axis_index(kSimd, array.simd) * kNumTc + tc, i);
    m_key[i] = m_ids.id(rows, i);
    c_key[i] = c_ids.id(tc, i);
    hw_key[i] = hw_ids.id(spatial, i);
  }
  out.stream_first_ = std::move(stream_ids.first);
  out.streams_.resize(out.stream_first_.size());
  const int batch = AcceleratorDesign{}.batch;
  std::vector<char> is_conv(num_classes);
  std::size_t num_convs = 0;
  for (std::size_t k = 0; k < num_classes; ++k) {
    is_conv[k] = graph.layer(reps[k]).is_conv();
    num_convs += is_conv[k] ? 1 : 0;
  }

  // Per-key terms of the conv classes, once per key; pooling cycles read
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
  const auto tile_counts = [&](graph::LayerId id, const DseCandidate& c) {
    return layer_tile_counts(graph, id, c.array, c.tile);
  };
  const auto m_tiles = conv_terms(m_ids.first, [&](graph::LayerId id,
                                                  const DseCandidate& c) {
    return std::int64_t{tile_counts(id, c).n_m};
  });
  const auto c_tiles = conv_terms(c_ids.first, [&](graph::LayerId id,
                                                  const DseCandidate& c) {
    return std::int64_t{tile_counts(id, c).n_c};
  });
  const auto hw_tiles = conv_terms(hw_ids.first, [&](graph::LayerId id,
                                                    const DseCandidate& c) {
    return tile_counts(id, c).spatial_tiles();
  });
  const auto px = conv_terms(px_ids.first, [&](graph::LayerId id,
                                              const DseCandidate& c) {
    return px_steps(graph, id, c.tile.th, c.tile.tw, c.array.effective_cols());
  });
  const auto red = conv_terms(red_ids.first, [&](graph::LayerId id,
                                                const DseCandidate& c) {
    return red_steps(graph, id, c.tile.tc, c.array.simd);
  });
  std::vector<std::int64_t> pool(num_classes);
  for (std::size_t k = 0; k < num_classes; ++k) {
    if (!is_conv[k]) pool[k] = pool_cycles(graph, reps[k], batch);
  }
  std::vector<std::int64_t> layers_in(num_classes);
  for (const int k : out.classes_.layer_class) {
    ++layers_in[static_cast<std::size_t>(k)];
  }

  // Each candidate's cycles from its keys' terms, and their exact sum
  // over the layers.
  out.cycles_.resize(menu.size());
  out.compute_cycles_.resize(menu.size());
  for (std::size_t i = 0; i < menu.size(); ++i) {
    const std::vector<std::int64_t>& n_m = m_tiles[m_key[i]];
    const std::vector<std::int64_t>& n_c = c_tiles[c_key[i]];
    const std::vector<std::int64_t>& n_hw = hw_tiles[hw_key[i]];
    const std::vector<std::int64_t>& px_row = px[px_key[i]];
    const std::vector<std::int64_t>& red_row = red[red_key[i]];
    std::vector<std::int64_t>& row = out.cycles_[i];
    row.resize(num_classes);
    std::int64_t total = 0;
    for (std::size_t k = 0; k < num_classes; ++k) {
      row[k] = is_conv[k] ? conv_cycles(n_m[k], px_row[k], red_row[k],
                                        batch, n_m[k] * n_c[k] * n_hw[k],
                                        menu[i].array)
                          : pool[k];
      total += layers_in[k] * row[k];
    }
    out.compute_cycles_[i] = total;
  }
  out.scan_order_.resize(menu.size());
  std::iota(out.scan_order_.begin(), out.scan_order_.end(), 0u);
  std::sort(out.scan_order_.begin(), out.scan_order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::pair{out.compute_cycles_[a], a} <
                     std::pair{out.compute_cycles_[b], b};
            });
  LCMM_COUNT("shape_classes", static_cast<std::int64_t>(num_classes));
  LCMM_COUNT("cost_evals",
             static_cast<std::int64_t>(menu.size() * num_classes));
  // The stream rows add theirs as argmins fill them.
  LCMM_COUNT("cost_terms",
             static_cast<std::int64_t>(
                 (px_ids.first.size() + red_ids.first.size()) * num_convs +
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
  Incumbent best(candidates, precision_);
  for (std::size_t i = 0; i < candidates.size(); ++i) best.offer(i, latencies[i]);
  LCMM_COUNT("candidates_evaluated",
             static_cast<std::int64_t>(candidates.size()));
  return best.result(device_, freq, graph.name());
}

}  // namespace lcmm::hw
