// Design-space exploration for the accelerator template (PE array shape +
// uniform tile configuration), standing in for the DSE frameworks
// [12, 18, 22] that the paper's Fig. 4 places upstream of LCMM.
//
// The DSE enumerates array/tile candidates under a DSP budget (83% of the
// device) and a BRAM budget (15%) for the double-buffered tile buffers,
// and minimizes a latency objective. The default objective is the UMM
// latency (every tensor off-chip); the LCMM driver re-runs the DSE with an
// allocation-aware objective, which is how "smaller tile sizes improve
// computation efficiency once the bandwidth bottleneck is gone" (§4.1)
// emerges.
//
// One compile request evaluates its design space once: Dse::space() groups
// the layers into shape classes and fills the clock-free compute cycles of
// every (candidate, class), computing each cost term once per distinct
// input it reads (docs/performance-model.md). DesignSpace::argmin() derives
// every objective the compiler needs — UMM at the uniform clock, the LCMM
// seed at the heavy-URAM clock, the allocation-aware refine under an
// on-chip state — from it with O(layers) lookups per candidate it
// evaluates.
//
// Eq. 1 puts a layer's latency at or above its compute time under any
// on-chip mask, so a candidate's total compute cycles C_i times the cycle
// time bound all three objectives from below. argmin() walks the menu in
// (C_i, menu index) order and stops at the first bound above the best
// latency found; the DDR stream terms (the costly part of a cell) are
// computed per (rows, tile) row only when a candidate that can still win
// needs them, and then kept in the space.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "hw/perf_model.hpp"

namespace lcmm::hw {

struct DseOptions {
  /// Whether the design will rely on URAM tensor buffers (costs clock).
  bool heavy_uram_use = false;
  /// Allow int8 DSP pixel packing (2 MACs/DSP) in the candidate space.
  /// Off by default: the paper's baseline [18] does not pack (its quoted
  /// 2.7 Tops peak is one MAC per DSP).
  bool allow_int8_packing = false;
  /// Workers for candidate evaluation and stream rows (0 =
  /// par::default_jobs()). The result is worker-count independent: every
  /// argmin reduces with an explicit (latency, DSP cost, menu index)
  /// tie-break.
  int jobs = 0;
};

struct DseResult {
  AcceleratorDesign design;
  double objective_latency_s = 0.0;
};

/// Every layer field the per-layer cost and the tile-buffer sizes read.
/// Layers with equal keys cost the same under every design, wherever they
/// sit in the network. Fields a layer kind does not read stay zero.
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

  auto operator<=>(const ShapeKey&) const = default;
};

ShapeKey shape_key(const graph::ComputationGraph& graph, graph::LayerId id);

/// The graph's layers grouped by ShapeKey.
struct ShapeClasses {
  /// Class of each layer, indexed by LayerId.
  std::vector<int> layer_class;
  /// First layer of each class; class ids follow first appearance.
  std::vector<graph::LayerId> representative;

  std::size_t size() const { return representative.size(); }
};

ShapeClasses shape_classes(const graph::ComputationGraph& graph);

/// One (array, tile) pair of the DSE menu.
struct DseCandidate {
  SystolicArrayConfig array;
  TileConfig tile;
};

/// One compile request's design space: the filtered menu (a candidate's
/// position is its "menu index") and, for each candidate and shape class,
/// the clock-free Eq. 1 inputs. Built by Dse::space(); it borrows the
/// graph, which must outlive it. Stream rows fill on first use and stay,
/// so argmin() and cell() mutate cached state: use a space from one
/// thread at a time.
class DesignSpace {
 public:
  /// Clock-free Eq. 1 inputs of one class under one candidate. Menu
  /// designs have no stationary buffer, so output-stationary is their
  /// only loop order and no clock-dependent choice remains.
  struct Cost {
    std::int64_t cycles = 0;
    double if_s = 0.0;
    double res_s = 0.0;
    double wt_s = 0.0;
    double of_s = 0.0;
  };

  const ShapeClasses& classes() const { return classes_; }
  const std::vector<DseCandidate>& menu() const { return menu_; }

  /// Shape class `k` under menu candidate `i`, as the argmins read it
  /// (fills the candidate's stream row if no argmin has).
  Cost cell(std::size_t i, std::size_t k) const;

  /// A lower bound on candidate `i`'s argmin latency at the clock that
  /// `heavy_uram_use` implies, under any on-chip masks:
  /// C_i x cycle time x (1 - (layers + 4) x 2^-52), where C_i is the
  /// candidate's exact integer sum of compute cycles over the layers. The
  /// factor covers the rounding of the layer-order sum, so the bound
  /// never exceeds it.
  double latency_bound(std::size_t i, bool heavy_uram_use) const;

  /// The design minimizing the summed per-layer Eq. 1 latency at the clock
  /// that `heavy_uram_use` implies, with layer l's streams in
  /// `on_chip_masks[l]` on chip (hw::kOnChip* bits; empty = nothing on
  /// chip, the UMM objective). Sums run in layer order and ties break on
  /// (DSP cost, menu index), exactly as Dse::explore with the matching
  /// PerfModel / LatencyTables objective. Evaluates candidates in
  /// (C_i, menu index) order until latency_bound exceeds the best latency;
  /// every candidate that ties with the winner or beats it is evaluated,
  /// so the pruning never changes the result.
  DseResult argmin(bool heavy_uram_use,
                   std::span<const std::uint8_t> on_chip_masks = {}) const;

 private:
  friend class Dse;
  DesignSpace() = default;

  /// DDR stream seconds of one class under one (rows, tile).
  struct Streams {
    double if_s = 0.0;
    double res_s = 0.0;
    double wt_s = 0.0;
    double of_s = 0.0;
  };

  double bound(std::size_t i, double cycle_s) const;
  /// Candidate `i`'s stream row, filled first if empty.
  const std::vector<Streams>& streams(std::size_t i) const;
  /// Fills the (empty) stream rows `keys`, one task per row.
  void fill_rows(const std::vector<std::uint32_t>& keys) const;
  /// Candidate `i`'s objective: Eq. 1 summed in layer order.
  double latency(std::size_t i, double cycle_s,
                 std::span<const std::uint8_t> on_chip_masks) const;

  const graph::ComputationGraph* graph_ = nullptr;
  FpgaDevice device_;
  Precision precision_ = Precision::kInt8;
  int jobs_ = 0;
  std::vector<DseCandidate> menu_;
  ShapeClasses classes_;
  /// The table, factored by what each term reads. cycles_[i][k] is
  /// candidate i's compute cycles for class k, and compute_cycles_[i] their
  /// sum over the layers; scan_order_ sorts the menu by (compute_cycles_,
  /// menu index). The streams read the array only through its row count,
  /// so every candidate with the same (rows, tile) shares one row:
  /// streams_[stream_key_[i]][k], computed on candidate
  /// stream_first_[stream_key_[i]]'s design and empty until first needed.
  /// One row per candidate or key keeps every allocation small: a single
  /// table-sized block would be served by mmap, and freeing it raises
  /// glibc's mmap threshold for the rest of the process, which grows the
  /// heap of every later compile.
  std::vector<std::vector<std::int64_t>> cycles_;
  std::vector<std::int64_t> compute_cycles_;
  std::vector<std::uint32_t> scan_order_;
  std::vector<std::uint32_t> stream_key_;
  std::vector<std::size_t> stream_first_;
  mutable std::vector<std::vector<Streams>> streams_;
};

class Dse {
 public:
  Dse(FpgaDevice device, Precision precision, DseOptions options = {});

  /// Latency objective: maps a complete design to estimated seconds.
  using Objective = std::function<double(const AcceleratorDesign&)>;

  /// Builds `graph`'s design space: the menu, the shape classes, the
  /// compute cycles and the scan order. The stream rows are filled later,
  /// on DseOptions::jobs workers, by the argmins that need them. The space
  /// borrows `graph`. Throws CompileError(kNoFeasibleDesign) if no
  /// candidate fits.
  DesignSpace space(const graph::ComputationGraph& graph) const;

  /// Explores the candidate space for `graph`. With no objective, minimizes
  /// the UMM total latency at the options' clock (space(graph).argmin()).
  /// Throws CompileError(kNoFeasibleDesign) if no candidate fits.
  /// An objective is evaluated on every candidate, on DseOptions::jobs
  /// workers; latency ties break on DSP cost, then menu index, so the
  /// winner does not depend on evaluation order (serial and parallel runs
  /// agree bitwise). The exhaustive reference for DesignSpace::argmin.
  DseResult explore(const graph::ComputationGraph& graph,
                    const Objective& objective = nullptr) const;

  /// PE-array shapes within the DSP budget.
  std::vector<SystolicArrayConfig> array_candidates() const;
  /// Tile configurations legal for `array` on `graph` (BRAM-feasible).
  std::vector<TileConfig> tile_candidates(const graph::ComputationGraph& graph,
                                          const SystolicArrayConfig& array) const;

  const DseOptions& options() const { return options_; }
  int dsp_budget() const;

 private:
  /// Tiles whose buffers fit the BRAM budget for `array`, before the SIMD
  /// filter. The buffer sizes read the array only through its row count.
  std::vector<TileConfig> fitting_tiles(
      const graph::ComputationGraph& graph,
      std::span<const graph::LayerId> representatives,
      const SystolicArrayConfig& array) const;
  /// The menu in its historical order (arrays outer, tiles inner).
  std::vector<DseCandidate> menu(const graph::ComputationGraph& graph,
                                 const ShapeClasses& classes) const;

  FpgaDevice device_;
  Precision precision_;
  DseOptions options_;
};

}  // namespace lcmm::hw
