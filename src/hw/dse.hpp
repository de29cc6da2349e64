// Design-space exploration for the accelerator template (PE array shape +
// uniform tile configuration), standing in for the DSE frameworks
// [12, 18, 22] that the paper's Fig. 4 places upstream of LCMM.
//
// The DSE enumerates array/tile candidates under a DSP budget (83% of the
// device) and a BRAM budget (15%) for the double-buffered tile buffers,
// and minimizes a latency objective. Arrays run one MAC per DSP (five at
// fp32), as the template of [18] does. The first objective is the UMM
// latency (every tensor off-chip); the LCMM driver re-runs the DSE with an
// allocation-aware objective, which is how "smaller tile sizes improve
// computation efficiency once the bandwidth bottleneck is gone" (§4.1)
// emerges.
//
// One compile request evaluates its design space once: Dse::space() groups
// the layers into shape classes, reads each class's ShapeKey from the graph
// once, and from then on computes every cost term as plain arithmetic on
// those keys, once per menu axis value it reads (docs/performance-model.md):
// the BRAM filter from per-(tc, spatial) input and per-tc weight maxima,
// n_m per rows value, n_c per tc and n_h x n_w per spatial value, the
// pixel and reduction steps per (cols, spatial) and (simd, tc) key and
// distinct shape input, and the streams per (rows, tile) row. Each menu
// candidate records its axis positions when the menu is generated, so
// every term is read by direct index. DesignSpace::argmin() derives every
// objective the compiler needs — UMM at the uniform clock, the LCMM seed at
// the heavy-URAM clock, the allocation-aware refine under an on-chip
// state — from it with O(layers) lookups per candidate it evaluates, and
// hands back the winner's tile buffers from the filter's class maxima.
// The compile builds each picked design's PerfModel over the space's
// shape classes: one layer_cost per class.
//
// Eq. 1 puts a layer's latency at or above its compute time under any
// on-chip mask, so a candidate's total compute cycles C_i times the cycle
// time bound all three objectives from below. argmin() walks the menu in
// (C_i, menu index) order and stops at the first bound above the best
// latency found; the DDR stream terms (the costly part of a cell) are
// computed per (rows, tile) row only when a candidate that can still win
// needs them, and then kept in the space, and a candidate's class cycles
// only when it is evaluated.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hw/perf_model.hpp"

namespace lcmm::hw {

struct DseOptions {
  /// Whether the design will rely on URAM tensor buffers (costs clock).
  bool heavy_uram_use = false;
};

struct DseResult {
  AcceleratorDesign design;
  double objective_latency_s = 0.0;
  /// The design's double-buffered tile buffers on the explored graph:
  /// tile_buffer_bytes(graph, design.array, design.tile, precision).
  TileBufferBytes tile_buffers;
};

/// The menu axes. The menus follow [18]: power-of-two-ish row/simd counts
/// and column counts that divide common feature-map widths well. Row depth
/// stops at 32 — the output-stationary template accumulates partial sums
/// down each row, and deeper rows blow up the adder/banking depth (the
/// published designs use modest output-channel unroll). Tiles are square:
/// th = tw = a kMenuSpatial value.
inline constexpr int kMenuRows[] = {8, 16, 32};
inline constexpr int kMenuCols[] = {8, 11, 14, 16, 22, 32};
inline constexpr int kMenuSimd[] = {4, 8, 16, 32};
inline constexpr int kMenuTc[] = {16, 32, 64, 128};
inline constexpr int kMenuSpatial[] = {4, 7, 8, 14, 16, 17, 28};

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
  /// Clock-free Eq. 1 inputs of one class under one candidate.
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
  /// (DSP cost, menu index), exactly as an exhaustive scan of the menu
  /// under the matching PerfModel / LatencyTables objective (the test
  /// oracle in tests/oracle/dse.hpp). Evaluates candidates in
  /// (C_i, menu index) order until latency_bound exceeds the best latency;
  /// every candidate that ties with the winner or beats it is evaluated,
  /// so the pruning never changes the result.
  DseResult argmin(bool heavy_uram_use,
                   std::span<const std::uint8_t> on_chip_masks = {}) const;

 private:
  friend class Dse;
  DesignSpace() = default;

  static constexpr std::size_t kNumRows = std::size(kMenuRows);
  static constexpr std::size_t kNumCols = std::size(kMenuCols);
  static constexpr std::size_t kNumSimd = std::size(kMenuSimd);
  static constexpr std::size_t kNumTc = std::size(kMenuTc);
  static constexpr std::size_t kNumSpatial = std::size(kMenuSpatial);
  /// Stream rows: one per (rows, tc, spatial).
  static constexpr std::size_t kNumSlots = kNumRows * kNumTc * kNumSpatial;

  /// DDR stream seconds of one class under one (rows, tile).
  struct Streams {
    double if_s = 0.0;
    double res_s = 0.0;
    double wt_s = 0.0;
    double of_s = 0.0;
  };

  /// A candidate's position on each menu axis, recorded when the menu is
  /// generated.
  struct Axes {
    std::uint8_t rows = 0;
    std::uint8_t cols = 0;
    std::uint8_t simd = 0;
    std::uint8_t tc = 0;
    std::uint8_t spatial = 0;

    /// The pixel-step key (cols, spatial) and reduction-step key (simd, tc).
    std::size_t px() const { return cols * kNumSpatial + spatial; }
    std::size_t red() const { return simd * kNumTc + tc; }
    /// The stream row this candidate reads.
    std::size_t slot() const {
      return (rows * kNumTc + tc) * kNumSpatial + spatial;
    }
  };

  /// Calls f(k, cycles) with candidate `i`'s compute cycles of each class k.
  template <typename F>
  void for_each_cycles(std::size_t i, F&& f) const;
  double bound(std::size_t i, double cycle_s) const;
  /// Candidate `i`'s stream row, filled first if empty.
  const std::vector<Streams>& streams(std::size_t i) const;
  /// Fills candidate `i`'s (empty) stream row, after the fetched extents
  /// of its spatial value.
  void fill_row(std::size_t i) const;
  /// Candidate `i`'s objective: Eq. 1 summed in layer order. `scratch`
  /// holds one value per class.
  double latency(std::size_t i, double cycle_s,
                 std::span<const std::uint8_t> on_chip_masks,
                 std::vector<double>& scratch) const;
  /// Candidate `i`'s tile buffers, from the filter's class maxima.
  TileBufferBytes tile_buffers(std::size_t i) const;

  const graph::ComputationGraph* graph_ = nullptr;
  FpgaDevice device_;
  Precision precision_ = Precision::kInt8;
  std::vector<DseCandidate> menu_;
  std::vector<Axes> axes_;
  ShapeClasses classes_;
  /// The BRAM filter's maxima over the classes of tile_buffer_bytes' terms,
  /// in bytes: the input buffer per (tc, spatial), and the weight and
  /// output buffers per PE row, per tc and per spatial value.
  std::int64_t tile_input_[kNumTc][kNumSpatial] = {};
  std::int64_t tile_weight_[kNumTc] = {};
  std::int64_t tile_output_[kNumSpatial] = {};
  /// The terms, each computed once per space from the classes' shapes for
  /// each axis value or key it reads (docs/performance-model.md); a value
  /// or key that no candidate reads is left unset. rows_tiles_ holds n_m
  /// and channels_per_mtile by rows position, then class, and tc_tiles_
  /// n_c by tc position, then class. spatial_tiles_ holds a
  /// LayerTileGeometry per spatial value and class with n_h and n_w set;
  /// it becomes the whole layer_tile_geometry, fetched extents included,
  /// when the first stream row of its value is filled (bit s of
  /// fetched_spatial_). convs_ and pools_ list the class ids of each kind;
  /// px_ and red_ hold the pixel and reduction steps by key (Axes::px(),
  /// Axes::red()), then position in convs_, and pool_ the pooling cycles
  /// by position in pools_.
  /// compute_cycles_[i] is candidate i's exact cycle sum over the layers
  /// and scan_order_ sorts the menu by (compute_cycles_, menu index). The
  /// streams read the array only through its row count, so they are kept
  /// per (rows, tc, spatial): streams_[axes_[i].slot()][k], empty until
  /// first needed. Every table stays small for the zoo's nets (tens of
  /// KiB): a block above glibc's mmap threshold (128 KiB) would be served
  /// by mmap, and freeing it raises that threshold for the rest of the
  /// process, which grows the heap of every later compile.
  std::vector<RowTiles> rows_tiles_;
  std::vector<int> tc_tiles_;
  mutable std::array<std::vector<LayerTileGeometry>, kNumSpatial>
      spatial_tiles_;
  mutable std::uint32_t fetched_spatial_ = 0;
  std::vector<std::int64_t> px_;
  std::vector<std::int64_t> red_;
  std::vector<std::int64_t> pool_;
  std::vector<std::uint32_t> convs_;
  std::vector<std::uint32_t> pools_;
  std::vector<std::int64_t> compute_cycles_;
  std::vector<std::uint32_t> scan_order_;
  mutable std::array<std::vector<Streams>, kNumSlots> streams_;
};

class Dse {
 public:
  Dse(FpgaDevice device, Precision precision, DseOptions options = {});

  /// Builds `graph`'s design space: the menu, the shape classes, the
  /// compute cycles and the scan order. The stream rows are filled later,
  /// one at a time, by the argmin walks that need them. The space borrows
  /// `graph`. Throws CompileError(kNoFeasibleDesign) if no candidate fits.
  DesignSpace space(const graph::ComputationGraph& graph) const;

  /// The design minimizing `graph`'s UMM total latency at the options'
  /// clock: space(graph).argmin(heavy_uram_use). Throws
  /// CompileError(kNoFeasibleDesign) if no candidate fits.
  DseResult explore(const graph::ComputationGraph& graph) const;

  /// PE-array shapes within the DSP budget.
  std::vector<SystolicArrayConfig> array_candidates() const;

  int dsp_budget() const;
  /// Bytes of BRAM the double-buffered tile buffers may take: a tile is
  /// legal when tile_buffer_bytes(graph, array, tile, p).total() is at
  /// most this.
  std::int64_t tile_bram_budget() const;

 private:
  /// Fills `space`'s BRAM filter, then its menu in the historical order
  /// (arrays outer, tiles inner) with each candidate's axis positions.
  void fill_menu(DesignSpace& space) const;

  FpgaDevice device_;
  Precision precision_;
  DseOptions options_;
};

}  // namespace lcmm::hw
