#include "hw/dse.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
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

/// Position of `value` on a menu axis.
template <std::size_t N>
std::size_t axis_index(const int (&axis)[N], int value) {
  return static_cast<std::size_t>(std::find(axis, axis + N, value) - axis);
}

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
  // The menu axes give fewer keys than an 8-bit id can number.
  static_assert(std::size(kCols) * std::size(kSpatial) < 0xff);

  explicit KeyIds(std::size_t slots) : ids_(slots, kNone) {}

  /// Id of the key in `slot`; a new key records candidate `i` as the one
  /// that computes its terms.
  std::uint8_t id(std::size_t slot, std::size_t i) {
    std::uint8_t& id = ids_[slot];
    if (id == kNone) {
      id = static_cast<std::uint8_t>(first.size());
      first.push_back(i);
    }
    return id;
  }

  /// The first candidate of each key, by id.
  std::vector<std::size_t> first;

 private:
  static constexpr std::uint8_t kNone = 0xff;
  std::vector<std::uint8_t> ids_;
};

/// For each of the classes `ids`, by position, the position of the first
/// of them whose `fields` (the shape fields one term reads) equal its own.
template <typename Fields>
std::vector<std::size_t> first_alike(const std::vector<ShapeKey>& shapes,
                                     const std::vector<std::uint32_t>& ids,
                                     Fields fields) {
  std::vector<std::size_t> first(ids.size());
  std::vector<std::size_t> distinct;
  for (std::size_t p = 0; p < ids.size(); ++p) {
    const auto it = std::find_if(
        distinct.begin(), distinct.end(), [&](std::size_t d) {
          return fields(shapes[ids[d]]) == fields(shapes[ids[p]]);
        });
    first[p] = it == distinct.end() ? p : *it;
    if (it == distinct.end()) distinct.push_back(p);
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

constexpr std::size_t kNumRows = std::size(kRows);
constexpr std::size_t kNumTc = std::size(kTc);
constexpr std::size_t kNumSpatial = std::size(kSpatial);

/// The menu's BRAM filter, by axis. Over the classes, tile_buffer_bytes'
/// input maximum reads (tc, spatial), its weight maximum is rows x a tc
/// term and its output maximum rows x a spatial term, so each maximum is
/// taken once per axis value at one PE row, and every (rows, tile) check
/// is then three table reads.
class TileFilter {
 public:
  TileFilter(std::span<const ShapeKey> shapes, Precision p,
             std::int64_t budget)
      : budget_(budget) {
    for (std::size_t t = 0; t < kNumTc; ++t) {
      for (std::size_t s = 0; s < kNumSpatial; ++s) {
        const TileConfig tile{kTc[t], kSpatial[s], kSpatial[s]};
        for (const ShapeKey& shape : shapes) {
          const TileBufferBytes b = tile_buffer_bytes(shape, 1, tile, p);
          input_[t][s] = std::max(input_[t][s], b.input);
          weight_[t] = std::max(weight_[t], b.weight);
          output_[s] = std::max(output_[s], b.output);
        }
      }
    }
  }

  /// The tiles whose buffers fit for `rows` PE rows, tc outer.
  std::vector<TileConfig> tiles(int rows) const {
    std::vector<TileConfig> out;
    for (std::size_t t = 0; t < kNumTc; ++t) {
      for (std::size_t s = 0; s < kNumSpatial; ++s) {
        if (input_[t][s] + rows * weight_[t] + rows * output_[s] <= budget_) {
          out.push_back({kTc[t], kSpatial[s], kSpatial[s]});
        }
      }
    }
    return out;
  }

 private:
  std::int64_t budget_;
  std::int64_t input_[kNumTc][kNumSpatial] = {};
  std::int64_t weight_[kNumTc] = {};
  std::int64_t output_[kNumSpatial] = {};
};

/// Hashes the fields that tell most shape classes apart; equality on the
/// whole key still decides.
struct ShapeKeyHash {
  std::size_t operator()(const ShapeKey& k) const {
    std::size_t h = std::hash<std::int64_t>{}(k.macs);
    for (const std::int64_t v :
         {k.weight_elems, std::int64_t{k.in_channels},
          std::int64_t{k.out_channels}, std::int64_t{k.out_height},
          std::int64_t{k.out_width}}) {
      h ^= std::hash<std::int64_t>{}(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

}  // namespace

ShapeClasses shape_classes(const graph::ComputationGraph& graph) {
  ShapeClasses out;
  out.layer_class.reserve(graph.num_layers());
  std::unordered_map<ShapeKey, int, ShapeKeyHash> ids;
  for (const graph::Layer& layer : graph.layers()) {
    const ShapeKey key = shape_key(graph, layer.id);
    const auto [it, added] = ids.try_emplace(key, static_cast<int>(out.size()));
    if (added) {
      out.representative.push_back(layer.id);
      out.shape.push_back(key);
    }
    out.layer_class.push_back(it->second);
  }
  return out;
}

template <typename F>
void DesignSpace::for_each_cycles(std::size_t i, F&& f) const {
  const Axes& a = axes_[i];
  const SystolicArrayConfig& array = menu_[i].array;
  const std::vector<LayerTileGeometry>& m = rows_tiles_[a.rows];
  const std::vector<LayerTileGeometry>& c = tc_tiles_[a.tc];
  const std::vector<LayerTileGeometry>& hw = spatial_tiles_[a.spatial];
  const std::vector<std::int64_t>& px = px_[a.px];
  const std::vector<std::int64_t>& red = red_[a.red];
  for (std::size_t j = 0; j < convs_.size(); ++j) {
    const std::uint32_t k = convs_[j];
    const std::int64_t n_m = m[k].n_m;
    f(k, conv_cycles(n_m, px[j], red[j],
                     n_m * c[k].n_c * hw[k].spatial_tiles(), array));
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

std::size_t DesignSpace::stream_slot(std::size_t i) const {
  const Axes& a = axes_[i];
  return (a.rows * kNumTc + a.tc) * kNumSpatial + a.spatial;
}

const std::vector<DesignSpace::Streams>& DesignSpace::streams(
    std::size_t i) const {
  const std::size_t x = stream_slot(i);
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
  const std::vector<LayerTileGeometry>& m = rows_tiles_[a.rows];
  const std::vector<LayerTileGeometry>& c = tc_tiles_[a.tc];
  // The row is built aside and assigned whole, so a failed fill leaves it
  // empty for the next caller to fill.
  std::vector<Streams> row(shapes.size());
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    // layer_tile_geometry(shapes[k], design.array, design.tile), each
    // field from the axis value that determines it.
    LayerTileGeometry geom = hw[k];
    geom.n_m = m[k].n_m;
    geom.channels_per_mtile = m[k].channels_per_mtile;
    geom.n_c = c[k].n_c;
    const LayerCost cost = stream_cost(shapes[k], geom, design, ddr);
    row[k] = {cost.if_s, cost.res_s, cost.wt_s, cost.of_s};
  }
  streams_[stream_slot(i)] = std::move(row);
  LCMM_COUNT("stream_rows", 1);
  LCMM_COUNT("cost_terms", static_cast<std::int64_t>(shapes.size()));
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
  return best.result(device_, freq, graph_->name());
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
  const int budget = dsp_budget();
  const auto enumerate = [&](bool prune_dominated) {
    std::vector<SystolicArrayConfig> out;
    for (int r : kRows) {
      for (int c : kCols) {
        for (int s : kSimd) {
          const SystolicArrayConfig cfg{r, c, s};
          const int cost = cfg.dsp_cost(precision_);
          if (cost > budget) continue;
          // Discard configs below half budget: they are strictly dominated
          // by a larger legal sibling and only slow the search down.
          if (prune_dominated && cost * 2 <= budget) continue;
          out.push_back(cfg);
        }
      }
    }
    return out;
  };
  std::vector<SystolicArrayConfig> out = enumerate(/*prune_dominated=*/true);
  if (out.empty()) {
    // Consecutive config costs differ by less than 2x, so the prune empties
    // the menu only when the budget is at least twice the costliest config:
    // then accept anything that fits.
    out = enumerate(/*prune_dominated=*/false);
  }
  return out;
}

std::vector<TileConfig> Dse::tile_candidates(
    const graph::ComputationGraph& graph,
    const SystolicArrayConfig& array) const {
  std::vector<TileConfig> out =
      TileFilter(shape_classes(graph).shape, precision_, tile_bram_budget())
          .tiles(array.rows);
  // SIMD lanes must be fed within a tile.
  std::erase_if(out, [&](const TileConfig& t) { return t.tc < array.simd; });
  return out;
}

std::vector<DseCandidate> Dse::menu(const graph::ComputationGraph& graph,
                                    const ShapeClasses& classes) const {
  const TileFilter filter(classes.shape, precision_, tile_bram_budget());
  // Arrays with the same row count share their BRAM-feasible tiles.
  std::vector<TileConfig> fitting[kNumRows];
  bool filtered[kNumRows] = {};
  std::vector<DseCandidate> out;
  for (const SystolicArrayConfig& array : array_candidates()) {
    const std::size_t r = axis_index(kRows, array.rows);
    if (!filtered[r]) {
      fitting[r] = filter.tiles(array.rows);
      filtered[r] = true;
    }
    for (const TileConfig& tile : fitting[r]) {
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
  out.classes_ = shape_classes(graph);
  out.menu_ = menu(graph, out.classes_);
  const std::vector<DseCandidate>& menu = out.menu_;
  const std::vector<ShapeKey>& shapes = out.classes_.shape;
  const std::size_t num_classes = shapes.size();

  // Place each candidate on the menu axes. The tile counts read one axis
  // each (rows, tc, spatial), the pixel steps (cols, spatial) and the
  // reduction steps (simd, tc); each term is computed once per
  // axis value or key that some candidate uses, on its first such
  // candidate. Menu tiles are square.
  KeyIds px_ids(std::size(kCols) * kNumSpatial);
  KeyIds red_ids(std::size(kSimd) * kNumTc);
  std::size_t rows_first[kNumRows], tc_first[kNumTc], spatial_first[kNumSpatial];
  std::fill(std::begin(rows_first), std::end(rows_first), menu.size());
  std::fill(std::begin(tc_first), std::end(tc_first), menu.size());
  std::fill(std::begin(spatial_first), std::end(spatial_first), menu.size());
  out.axes_.resize(menu.size());
  for (std::size_t i = 0; i < menu.size(); ++i) {
    const auto& [array, tile] = menu[i];
    DesignSpace::Axes& a = out.axes_[i];
    a.rows = static_cast<std::uint8_t>(axis_index(kRows, array.rows));
    a.tc = static_cast<std::uint8_t>(axis_index(kTc, tile.tc));
    a.spatial = static_cast<std::uint8_t>(axis_index(kSpatial, tile.th));
    a.px = px_ids.id(axis_index(kCols, array.cols) * kNumSpatial + a.spatial, i);
    a.red = red_ids.id(axis_index(kSimd, array.simd) * kNumTc + a.tc, i);
    rows_first[a.rows] = std::min(rows_first[a.rows], i);
    tc_first[a.tc] = std::min(tc_first[a.tc], i);
    spatial_first[a.spatial] = std::min(spatial_first[a.spatial], i);
  }

  // The per-axis tile counts of every class.
  const auto counts_by = [&](std::size_t first) {
    std::vector<LayerTileGeometry> row;
    if (first == menu.size()) return row;
    row.resize(num_classes);
    const DseCandidate& c = menu[first];
    for (std::size_t k = 0; k < num_classes; ++k) {
      row[k] = layer_tile_counts(shapes[k], c.array, c.tile);
    }
    return row;
  };
  for (const std::size_t first : rows_first) {
    out.rows_tiles_.push_back(counts_by(first));
  }
  for (const std::size_t first : tc_first) {
    out.tc_tiles_.push_back(counts_by(first));
  }
  for (const std::size_t first : spatial_first) {
    out.spatial_tiles_.push_back(counts_by(first));
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
  std::int64_t terms = 0;
  const auto conv_terms = [&](const std::vector<std::size_t>& first,
                              auto fields, auto term) {
    const std::vector<std::size_t> alike = first_alike(shapes, convs, fields);
    std::vector<std::vector<std::int64_t>> rows(first.size());
    for (std::size_t j = 0; j < first.size(); ++j) {
      std::vector<std::int64_t>& row = rows[j];
      row.resize(convs.size());
      for (std::size_t c = 0; c < convs.size(); ++c) {
        if (alike[c] != c) {
          row[c] = row[alike[c]];
          continue;
        }
        row[c] = term(shapes[convs[c]], menu[first[j]]);
        ++terms;
      }
    }
    return rows;
  };
  out.px_ = conv_terms(
      px_ids.first,
      [](const ShapeKey& s) { return std::tuple{s.out_height, s.out_width}; },
      [](const ShapeKey& shape, const DseCandidate& c) {
        return px_steps(shape, c.tile.th, c.tile.tw, c.array.cols);
      });
  out.red_ = conv_terms(
      red_ids.first,
      [](const ShapeKey& s) {
        return std::tuple{s.in_channels, s.conv_groups, s.conv_kernel_h,
                          s.conv_kernel_w};
      },
      [](const ShapeKey& shape, const DseCandidate& c) {
        return red_steps(shape, c.tile.tc, c.array.simd);
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
  std::vector<std::vector<std::int64_t>> layers_n_m(kNumRows);
  for (std::size_t r = 0; r < kNumRows; ++r) {
    if (out.rows_tiles_[r].empty()) continue;
    for (const std::uint32_t k : convs) {
      layers_n_m[r].push_back(layers_in[k] * out.rows_tiles_[r][k].n_m);
    }
  }
  std::vector<std::int64_t> slot_tiles(kNumRows * kNumTc * kNumSpatial, -1);
  out.compute_cycles_.resize(menu.size());
  for (std::size_t i = 0; i < menu.size(); ++i) {
    const DesignSpace::Axes& a = out.axes_[i];
    const std::vector<std::int64_t>& l_n_m = layers_n_m[a.rows];
    std::int64_t& tiles = slot_tiles[out.stream_slot(i)];
    if (tiles < 0) {
      const std::vector<LayerTileGeometry>& c = out.tc_tiles_[a.tc];
      const std::vector<LayerTileGeometry>& hw = out.spatial_tiles_[a.spatial];
      tiles = 0;
      for (std::size_t j = 0; j < convs.size(); ++j) {
        tiles += l_n_m[j] * c[convs[j]].n_c * hw[convs[j]].spatial_tiles();
      }
    }
    const std::vector<std::int64_t>& px = out.px_[a.px];
    const std::vector<std::int64_t>& red = out.red_[a.red];
    std::int64_t steps = 0;
    for (std::size_t j = 0; j < convs.size(); ++j) {
      steps += l_n_m[j] * px[j] * red[j];
    }
    out.compute_cycles_[i] =
        conv_cycles(1, steps, 1, tiles, menu[i].array) + pool_sum;
  }
  out.scan_order_ = radix_order(out.compute_cycles_);
  out.streams_.resize(kNumRows * kNumTc * kNumSpatial);
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
