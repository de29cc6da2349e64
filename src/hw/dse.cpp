#include "hw/dse.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/scope.hpp"
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

/// The lexicographic minimum of (latency, DSP cost, menu index) over the
/// finite latencies offered. Neither the winner nor the tie count depends
/// on the order of the offers, so the pruned scan picks the design an
/// exhaustive one would, bit for bit.
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
  std::size_t index() const { return index_; }
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

/// For each of the classes `ids`, by position, the position of the first
/// of them whose `fields` (the shape fields one term reads) equal its own:
/// a sort by (fields, position), then one pass over equal runs.
template <typename Fields>
std::vector<std::uint32_t> first_alike(const std::vector<ShapeKey>& shapes,
                                       const std::vector<std::uint32_t>& ids,
                                       Fields fields) {
  const auto key = [&](std::uint32_t p) { return fields(shapes[ids[p]]); };
  std::vector<std::uint32_t> order(ids.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::pair{key(a), a} < std::pair{key(b), b};
  });
  std::vector<std::uint32_t> first(ids.size());
  for (std::size_t n = 0; n < order.size(); ++n) {
    const std::uint32_t p = order[n];
    first[p] = n > 0 && key(order[n - 1]) == key(p) ? first[order[n - 1]] : p;
  }
  return first;
}

/// The positions of `keys` in (key, position) order: a stable LSD radix
/// sort, one byte per pass, up to the highest byte any key uses. Keys are
/// nonnegative. Unlike a comparison sort of a few hundred keys it takes
/// no data-dependent branch.
std::vector<std::uint32_t> radix_order(const std::vector<std::int64_t>& keys) {
  std::vector<std::uint32_t> order(keys.size()), next(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::uint64_t used = 0;
  for (const std::int64_t key : keys) used |= static_cast<std::uint64_t>(key);
  for (int shift = 0; shift < 64 && (used >> shift) != 0; shift += 8) {
    const auto digit = [&](std::uint32_t i) {
      return (static_cast<std::uint64_t>(keys[i]) >> shift) & 0xff;
    };
    std::size_t start[257] = {};
    for (const std::uint32_t i : order) ++start[digit(i) + 1];
    for (std::size_t d = 1; d < 257; ++d) start[d] += start[d - 1];
    for (const std::uint32_t i : order) next[start[digit(i)]++] = i;
    order.swap(next);
  }
  return order;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// A PE array of the menu and its axis positions.
struct MenuArray {
  SystolicArrayConfig array;
  std::uint8_t rows = 0;
  std::uint8_t cols = 0;
  std::uint8_t simd = 0;
};

/// The PE arrays within `budget` DSPs at precision `p`, rows outer, then
/// cols, then simd.
std::vector<MenuArray> menu_arrays(int budget, Precision p) {
  const auto enumerate = [&](bool prune_dominated) {
    std::vector<MenuArray> out;
    for (std::uint8_t r = 0; r < std::size(kMenuRows); ++r) {
      for (std::uint8_t c = 0; c < std::size(kMenuCols); ++c) {
        for (std::uint8_t s = 0; s < std::size(kMenuSimd); ++s) {
          const SystolicArrayConfig cfg{kMenuRows[r], kMenuCols[c],
                                        kMenuSimd[s]};
          const int cost = cfg.dsp_cost(p);
          if (cost > budget) continue;
          // Discard configs below half budget: they are strictly dominated
          // by a larger legal sibling and only slow the search down.
          if (prune_dominated && cost * 2 <= budget) continue;
          out.push_back({cfg, r, c, s});
        }
      }
    }
    return out;
  };
  std::vector<MenuArray> out = enumerate(/*prune_dominated=*/true);
  if (out.empty()) {
    // Consecutive config costs differ by less than 2x, so the prune empties
    // the menu only when the budget is at least twice the costliest config:
    // then accept anything that fits.
    out = enumerate(/*prune_dominated=*/false);
  }
  return out;
}

}  // namespace

template <typename F>
void DesignSpace::for_each_cycles(std::size_t i, F&& f) const {
  const Axes& a = axes_[i];
  const SystolicArrayConfig& array = menu_[i].array;
  const std::size_t classes = classes_.size();
  const RowTiles* m = rows_tiles_.data() + a.rows * classes;
  const int* n_c = tc_tiles_.data() + a.tc * classes;
  const std::vector<LayerTileGeometry>& hw = spatial_tiles_[a.spatial];
  const std::int64_t* px = px_.data() + a.px() * convs_.size();
  const std::int64_t* red = red_.data() + a.red() * convs_.size();
  for (std::size_t j = 0; j < convs_.size(); ++j) {
    const std::uint32_t k = convs_[j];
    const std::int64_t n_m = m[k].n_m;
    f(k, conv_cycles(n_m, px[j], red[j], n_m * n_c[k] * hw[k].spatial_tiles(),
                     array));
  }
  for (std::size_t j = 0; j < pools_.size(); ++j) f(pools_[j], pool_[j]);
}

DesignSpace::Cost DesignSpace::cell(std::size_t i, std::size_t k) const {
  const Streams& s = streams(i).at(k);
  Cost cost{0, s.if_s, s.res_s, s.wt_s, s.of_s};
  for_each_cycles(i, [&](std::size_t c, std::int64_t cycles) {
    if (c == k) cost.cycles = cycles;
  });
  return cost;
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
  const std::size_t x = axes_[i].slot();
  if (streams_[x].empty()) fill_row(i);
  return streams_[x];
}

void DesignSpace::fill_row(std::size_t i) const {
  const std::vector<ShapeKey>& shapes = classes_.shape;
  const Axes& a = axes_[i];
  std::vector<LayerTileGeometry>& hw = spatial_tiles_[a.spatial];
  const std::uint32_t bit = 1u << a.spatial;
  if (!(fetched_spatial_ & bit)) {
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      hw[k] = layer_tile_geometry(shapes[k], menu_[i].array, menu_[i].tile);
    }
    fetched_spatial_ |= bit;
  }
  const mem::DdrModel ddr(device_);
  AcceleratorDesign design;
  design.device = device_;
  design.precision = precision_;
  design.array = menu_[i].array;
  design.tile = menu_[i].tile;
  const RowTiles* m = rows_tiles_.data() + a.rows * shapes.size();
  const int* n_c = tc_tiles_.data() + a.tc * shapes.size();
  // The row is built aside and assigned whole, so a failed fill leaves it
  // empty for the next caller to fill.
  std::vector<Streams> row(shapes.size());
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    // layer_tile_geometry(shapes[k], design.array, design.tile), each
    // field from the axis value that determines it.
    LayerTileGeometry geom = hw[k];
    geom.n_m = m[k].n_m;
    geom.channels_per_mtile = m[k].channels_per_mtile;
    geom.n_c = n_c[k];
    const LayerCost cost = stream_cost(shapes[k], geom, design, ddr);
    row[k] = {cost.if_s, cost.res_s, cost.wt_s, cost.of_s};
  }
  streams_[a.slot()] = std::move(row);
  LCMM_COUNT("stream_rows", 1);
  LCMM_COUNT("cost_terms", static_cast<std::int64_t>(shapes.size()));
}

TileBufferBytes DesignSpace::tile_buffers(std::size_t i) const {
  const Axes& a = axes_[i];
  const std::int64_t rows = menu_[i].array.rows;
  return {tile_input_[a.tc][a.spatial], rows * tile_weight_[a.tc],
          rows * tile_output_[a.spatial]};
}

double DesignSpace::latency(std::size_t i, double cycle_s,
                            std::span<const std::uint8_t> on_chip_masks,
                            std::vector<double>& scratch) const {
  const std::vector<int>& layer_class = classes_.layer_class;
  const std::vector<Streams>& row = streams(i);
  scratch.resize(row.size());
  double total = 0.0;
  if (on_chip_masks.empty()) {
    // Every layer of a class has the same Eq. 1 term.
    for_each_cycles(i, [&](std::size_t k, std::int64_t cycles) {
      const Streams& s = row[k];
      scratch[k] = eq1_latency(static_cast<double>(cycles) * cycle_s, s.if_s,
                               s.res_s, s.wt_s, s.of_s, 0);
    });
    for (const int k : layer_class) total += scratch[static_cast<std::size_t>(k)];
    return total;
  }
  for_each_cycles(i, [&](std::size_t k, std::int64_t cycles) {
    scratch[k] = static_cast<double>(cycles) * cycle_s;
  });
  for (std::size_t l = 0; l < layer_class.size(); ++l) {
    const auto k = static_cast<std::size_t>(layer_class[l]);
    const Streams& s = row[k];
    total += eq1_latency(scratch[k], s.if_s, s.res_s, s.wt_s, s.of_s,
                         on_chip_masks[l]);
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
  std::vector<double> scratch;

  // Bounds rise along the scan order, so once one exceeds the best latency
  // no later candidate can tie or beat it. A candidate's stream row is
  // filled when it is first evaluated.
  Incumbent best(menu_, precision_);
  std::int64_t evaluated = 0;
  for (const std::uint32_t i : scan_order_) {
    if (best.found() && bound(i, cycle_s) > best.latency()) break;
    best.offer(i, latency(i, cycle_s, on_chip_masks, scratch));
    ++evaluated;
  }
  LCMM_COUNT("candidates_evaluated", evaluated);
  DseResult result = best.result(device_, freq, graph_->name());
  result.tile_buffers = tile_buffers(best.index());
  return result;
}

Dse::Dse(FpgaDevice device, Precision precision, DseOptions options)
    : device_(std::move(device)), precision_(precision), options_(options) {
  device_.validate();
}

int Dse::dsp_budget() const {
  return static_cast<int>(device_.dsp_total * kDspBudgetFraction);
}

std::int64_t Dse::tile_bram_budget() const {
  return static_cast<std::int64_t>(kTileBramFraction *
                                   device_.bram_bytes_total());
}

std::vector<SystolicArrayConfig> Dse::array_candidates() const {
  std::vector<SystolicArrayConfig> out;
  for (const MenuArray& a : menu_arrays(dsp_budget(), precision_)) {
    out.push_back(a.array);
  }
  return out;
}

void Dse::fill_menu(DesignSpace& space) const {
  constexpr std::size_t kNumTc = DesignSpace::kNumTc;
  constexpr std::size_t kNumSpatial = DesignSpace::kNumSpatial;
  // The BRAM filter, by axis. Over the classes, tile_buffer_bytes' input
  // maximum reads (tc, spatial), its weight maximum is rows x a tc term
  // and its output maximum rows x a spatial term, so each maximum is taken
  // once per axis value at one PE row, in elements, and every (rows, tile)
  // check is then three table reads.
  std::int64_t(&input)[kNumTc][kNumSpatial] = space.tile_input_;
  std::int64_t(&weight)[kNumTc] = space.tile_weight_;
  std::int64_t(&output)[kNumSpatial] = space.tile_output_;
  for (const ShapeKey& shape : space.classes_.shape) {
    for (std::size_t s = 0; s < kNumSpatial; ++s) {
      const std::int64_t pixels =
          input_tile_pixels(shape, kMenuSpatial[s], kMenuSpatial[s]);
      for (std::size_t t = 0; t < kNumTc; ++t) {
        input[t][s] = std::max(
            input[t][s],
            std::min<std::int64_t>(kMenuTc[t], shape.in_channels) * pixels);
      }
    }
    for (std::size_t t = 0; t < kNumTc; ++t) {
      weight[t] = std::max(weight[t], weight_tile_elems(shape, kMenuTc[t]));
    }
  }
  // Double-buffered bytes; every layer has the same output tile.
  const int bpe = bytes_per_elem(precision_);
  for (std::size_t t = 0; t < kNumTc; ++t) {
    for (std::int64_t& b : input[t]) b *= 2 * bpe;
    weight[t] *= 2 * bpe;
  }
  if (!space.classes_.shape.empty()) {
    for (std::size_t s = 0; s < kNumSpatial; ++s) {
      output[s] = 2 * static_cast<std::int64_t>(kMenuSpatial[s]) *
                  kMenuSpatial[s] * accumulator_bytes(precision_);
    }
  }

  // The fitting tiles of each rows value as a mask, bit t x kNumSpatial +
  // s for tile (kMenuTc[t], kMenuSpatial[s]): ascending bits are menu
  // order.
  static_assert(kNumTc * kNumSpatial <= 32);
  static_assert(std::is_sorted(std::begin(kMenuTc), std::end(kMenuTc)));
  const std::int64_t budget = tile_bram_budget();
  std::uint32_t fitting[DesignSpace::kNumRows] = {};
  for (std::size_t r = 0; r < DesignSpace::kNumRows; ++r) {
    const std::int64_t rows = kMenuRows[r];
    for (std::size_t t = 0; t < kNumTc; ++t) {
      for (std::size_t s = 0; s < kNumSpatial; ++s) {
        if (input[t][s] + rows * weight[t] + rows * output[s] <= budget) {
          fitting[r] |= 1u << (t * kNumSpatial + s);
        }
      }
    }
  }
  const std::vector<MenuArray> arrays = menu_arrays(dsp_budget(), precision_);
  const auto tiles_of = [&](const MenuArray& a) {
    std::uint32_t mask = fitting[a.rows];
    // SIMD lanes must be fed within a tile.
    for (std::size_t t = 0; t < kNumTc && kMenuTc[t] < a.array.simd; ++t) {
      mask &= ~(((1u << kNumSpatial) - 1) << (t * kNumSpatial));
    }
    return mask;
  };
  std::size_t size = 0;
  for (const MenuArray& a : arrays) size += std::popcount(tiles_of(a));
  space.menu_.reserve(size);
  space.axes_.reserve(size);
  for (const MenuArray& a : arrays) {
    for (std::uint32_t mask = tiles_of(a); mask != 0; mask &= mask - 1) {
      const auto bit = static_cast<std::uint8_t>(std::countr_zero(mask));
      const std::uint8_t t = bit / kNumSpatial;
      const std::uint8_t s = bit % kNumSpatial;
      space.menu_.push_back(
          {a.array, {kMenuTc[t], kMenuSpatial[s], kMenuSpatial[s]}});
      space.axes_.push_back({a.rows, a.cols, a.simd, t, s});
    }
  }
  if (space.menu_.empty()) {
    throw resil::CompileError(
        resil::Code::kNoFeasibleDesign, "dse.explore",
        "no feasible design within the device budget", space.graph_->name());
  }
  LCMM_COUNT("menu", static_cast<std::int64_t>(space.menu_.size()));
}

DesignSpace Dse::space(const graph::ComputationGraph& graph) const {
  LCMM_SPAN("dse");
  resil::fault::hit("dse.explore");
  DesignSpace out;
  out.graph_ = &graph;
  out.device_ = device_;
  out.precision_ = precision_;
  out.classes_ = shape_classes(graph);
  fill_menu(out);
  const std::vector<DseCandidate>& menu = out.menu_;
  const std::vector<ShapeKey>& shapes = out.classes_.shape;
  const std::size_t num_classes = shapes.size();

  // The axis values and step keys some candidate reads: each term below
  // is computed for those alone.
  bool rows_used[DesignSpace::kNumRows] = {};
  bool tc_used[DesignSpace::kNumTc] = {};
  bool spatial_used[DesignSpace::kNumSpatial] = {};
  bool px_used[DesignSpace::kNumCols * DesignSpace::kNumSpatial] = {};
  bool red_used[DesignSpace::kNumSimd * DesignSpace::kNumTc] = {};
  for (const DesignSpace::Axes& a : out.axes_) {
    rows_used[a.rows] = tc_used[a.tc] = spatial_used[a.spatial] = true;
    px_used[a.px()] = red_used[a.red()] = true;
  }

  // The tile counts, each field from the one axis value it reads.
  out.rows_tiles_.resize(DesignSpace::kNumRows * num_classes);
  for (std::size_t r = 0; r < DesignSpace::kNumRows; ++r) {
    if (!rows_used[r]) continue;
    for (std::size_t k = 0; k < num_classes; ++k) {
      out.rows_tiles_[r * num_classes + k] = row_tiles(shapes[k], kMenuRows[r]);
    }
  }
  std::vector<int> channels(num_classes);
  for (std::size_t k = 0; k < num_classes; ++k) {
    channels[k] = group_channels(shapes[k]);
  }
  out.tc_tiles_.resize(DesignSpace::kNumTc * num_classes);
  for (std::size_t t = 0; t < DesignSpace::kNumTc; ++t) {
    if (!tc_used[t]) continue;
    for (std::size_t k = 0; k < num_classes; ++k) {
      out.tc_tiles_[t * num_classes + k] =
          static_cast<int>(ceil_div(channels[k], kMenuTc[t]));
    }
  }
  for (std::size_t s = 0; s < DesignSpace::kNumSpatial; ++s) {
    if (!spatial_used[s]) continue;
    std::vector<LayerTileGeometry>& row = out.spatial_tiles_[s];
    row.resize(num_classes);
    const int tile = kMenuSpatial[s];
    for (std::size_t k = 0; k < num_classes; ++k) {
      row[k].n_h = static_cast<int>(ceil_div(shapes[k].out_height, tile));
      row[k].n_w = static_cast<int>(ceil_div(shapes[k].out_width, tile));
    }
  }

  // Per-key step terms of the conv classes, each computed once per
  // distinct value of the shape fields it reads and copied to the classes
  // that share them; pooling cycles read no design input at all. Both are
  // stored by position in convs_ or pools_.
  for (std::size_t k = 0; k < num_classes; ++k) {
    (shapes[k].is_conv() ? out.convs_ : out.pools_)
        .push_back(static_cast<std::uint32_t>(k));
  }
  const std::vector<std::uint32_t>& convs = out.convs_;
  const std::size_t num_convs = convs.size();
  std::int64_t terms = 0;
  const auto conv_terms = [&](std::vector<std::int64_t>& table,
                              std::span<const bool> used, auto fields,
                              auto term) {
    const std::vector<std::uint32_t> alike = first_alike(shapes, convs, fields);
    table.resize(used.size() * num_convs);
    for (std::size_t x = 0; x < used.size(); ++x) {
      if (!used[x]) continue;
      std::int64_t* row = table.data() + x * num_convs;
      for (std::size_t c = 0; c < num_convs; ++c) {
        if (alike[c] != c) {
          row[c] = row[alike[c]];
          continue;
        }
        row[c] = term(shapes[convs[c]], x);
        ++terms;
      }
    }
  };
  conv_terms(
      out.px_, px_used,
      [](const ShapeKey& s) { return std::pair{s.out_height, s.out_width}; },
      [](const ShapeKey& shape, std::size_t key) {
        const int s = kMenuSpatial[key % DesignSpace::kNumSpatial];
        return px_steps(shape, s, s,
                        kMenuCols[key / DesignSpace::kNumSpatial]);
      });
  conv_terms(
      out.red_, red_used,
      [](const ShapeKey& s) {
        return std::tuple{s.in_channels, s.conv_groups, s.conv_kernel_h,
                          s.conv_kernel_w};
      },
      [](const ShapeKey& shape, std::size_t key) {
        return red_steps(shape, kMenuTc[key % DesignSpace::kNumTc],
                         kMenuSimd[key / DesignSpace::kNumTc]);
      });
  std::vector<std::int64_t> layers_in(num_classes);
  for (const int k : out.classes_.layer_class) {
    ++layers_in[static_cast<std::size_t>(k)];
  }
  std::int64_t pool_sum = 0;
  for (const std::uint32_t k : out.pools_) {
    out.pool_.push_back(pool_cycles(shapes[k]));
    pool_sum += layers_in[k] * out.pool_.back();
    ++terms;
  }

  // Each candidate's exact cycle sum over the layers. conv_cycles is
  // linear in n_m x px x red and in total_tiles, so the conv layers sum to
  // conv_cycles(1, Σ L n_m px red, 1, Σ L total_tiles) over the
  // classes, L layers each: Σ L n_m is kept per rows value and the tile
  // sum per (rows, tc, spatial), so a candidate costs two multiplies per
  // class.
  std::vector<std::int64_t> layers_n_m(DesignSpace::kNumRows * num_convs);
  for (std::size_t r = 0; r < DesignSpace::kNumRows; ++r) {
    if (!rows_used[r]) continue;
    for (std::size_t j = 0; j < num_convs; ++j) {
      layers_n_m[r * num_convs + j] =
          layers_in[convs[j]] * out.rows_tiles_[r * num_classes + convs[j]].n_m;
    }
  }
  std::int64_t slot_tiles[DesignSpace::kNumSlots];
  std::fill(std::begin(slot_tiles), std::end(slot_tiles), -1);
  out.compute_cycles_.resize(menu.size());
  for (std::size_t i = 0; i < menu.size(); ++i) {
    const DesignSpace::Axes& a = out.axes_[i];
    const std::int64_t* l_n_m = layers_n_m.data() + a.rows * num_convs;
    std::int64_t& tiles = slot_tiles[a.slot()];
    if (tiles < 0) {
      const int* n_c = out.tc_tiles_.data() + a.tc * num_classes;
      const std::vector<LayerTileGeometry>& hw = out.spatial_tiles_[a.spatial];
      tiles = 0;
      for (std::size_t j = 0; j < num_convs; ++j) {
        tiles += l_n_m[j] * n_c[convs[j]] * hw[convs[j]].spatial_tiles();
      }
    }
    const std::int64_t* px = out.px_.data() + a.px() * num_convs;
    const std::int64_t* red = out.red_.data() + a.red() * num_convs;
    std::int64_t steps = 0;
    for (std::size_t j = 0; j < num_convs; ++j) {
      steps += l_n_m[j] * px[j] * red[j];
    }
    out.compute_cycles_[i] =
        conv_cycles(1, steps, 1, tiles, menu[i].array) + pool_sum;
  }
  out.scan_order_ = radix_order(out.compute_cycles_);
  LCMM_COUNT("shape_classes", static_cast<std::int64_t>(num_classes));
  LCMM_COUNT("cost_evals",
             static_cast<std::int64_t>(menu.size() * num_classes));
  // The stream rows add theirs as argmins fill them.
  LCMM_COUNT("cost_terms", terms);
  return out;
}

DseResult Dse::explore(const graph::ComputationGraph& graph) const {
  return space(graph).argmin(options_.heavy_uram_use);
}

}  // namespace lcmm::hw
