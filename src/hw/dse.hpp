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
// the tile counts per rows, tc and spatial value, the pixel and reduction
// steps per key and distinct shape input, and the streams per (rows, tile)
// row. DesignSpace::argmin() derives every objective the compiler needs —
// UMM at the uniform clock, the LCMM seed at the heavy-URAM clock, the
// allocation-aware refine under an on-chip state — from it with O(layers)
// lookups per candidate it evaluates.
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
};

/// The graph's layers grouped by ShapeKey.
struct ShapeClasses {
  /// Class of each layer, indexed by LayerId.
  std::vector<int> layer_class;
  /// First layer of each class; class ids follow first appearance.
  std::vector<graph::LayerId> representative;
  /// Shape of each class, by class id: all any cost term reads.
  std::vector<ShapeKey> shape;

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

  /// DDR stream seconds of one class under one (rows, tile).
  struct Streams {
    double if_s = 0.0;
    double res_s = 0.0;
    double wt_s = 0.0;
    double of_s = 0.0;
  };

  /// Where a candidate reads its terms: its rows, tc and spatial values as
  /// menu axis positions, and its pixel-step ((cols, spatial))
  /// and reduction-step ((simd, tc)) term rows.
  struct Axes {
    std::uint8_t rows = 0;
    std::uint8_t tc = 0;
    std::uint8_t spatial = 0;
    std::uint8_t px = 0;
    std::uint8_t red = 0;
  };

  /// Calls f(k, cycles) with candidate `i`'s compute cycles of each class k.
  template <typename F>
  void for_each_cycles(std::size_t i, F&& f) const;
  double bound(std::size_t i, double cycle_s) const;
  /// The stream row that candidate `i` reads: one per (rows, tc, spatial).
  std::size_t stream_slot(std::size_t i) const;
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

  const graph::ComputationGraph* graph_ = nullptr;
  FpgaDevice device_;
  Precision precision_ = Precision::kInt8;
  std::vector<DseCandidate> menu_;
  ShapeClasses classes_;
  std::vector<Axes> axes_;
  /// The terms, each computed once per space from the classes' shapes for
  /// each axis value it reads (docs/performance-model.md). Indexed by axis
  /// position, then class; a value that no candidate uses stays empty.
  /// rows_tiles_, tc_tiles_ and spatial_tiles_ hold layer_tile_counts
  /// per class for one rows, tc or spatial value; only the fields that
  /// value determines are read (n_m and channels_per_mtile; n_c; n_h and
  /// n_w). A spatial row becomes layer_tile_geometry, fetched extents
  /// included, when the first stream row of its value is filled
  /// (bit s of fetched_spatial_). convs_ and pools_ list the class ids
  /// of each kind; px_ and red_ hold the pixel and reduction steps by term
  /// key, then position in convs_, and pool_ the pooling cycles by
  /// position in pools_.
  /// compute_cycles_[i] is candidate i's exact cycle sum over the layers
  /// and scan_order_ sorts the menu by (compute_cycles_, menu index). The
  /// streams read the array only through its row count, so they are kept
  /// per (rows, tc, spatial): streams_[stream_slot(i)][k], empty until
  /// first needed. One row per axis value, key or slot keeps every
  /// allocation small: a single table-sized block would be served by
  /// mmap, and freeing it raises glibc's mmap threshold for the rest of
  /// the process, which grows the heap of every later compile.
  std::vector<std::vector<LayerTileGeometry>> rows_tiles_;
  std::vector<std::vector<LayerTileGeometry>> tc_tiles_;
  mutable std::vector<std::vector<LayerTileGeometry>> spatial_tiles_;
  mutable std::uint32_t fetched_spatial_ = 0;
  std::vector<std::vector<std::int64_t>> px_;
  std::vector<std::vector<std::int64_t>> red_;
  std::vector<std::int64_t> pool_;
  std::vector<std::uint32_t> convs_;
  std::vector<std::uint32_t> pools_;
  std::vector<std::int64_t> compute_cycles_;
  std::vector<std::uint32_t> scan_order_;
  mutable std::vector<std::vector<Streams>> streams_;
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
  /// Tile configurations legal for `array` on `graph` (BRAM-feasible).
  std::vector<TileConfig> tile_candidates(const graph::ComputationGraph& graph,
                                          const SystolicArrayConfig& array) const;

  int dsp_budget() const;
  /// Bytes of BRAM the double-buffered tile buffers may take: a tile is
  /// legal when tile_buffer_bytes(graph, array, tile, p).total() is at
  /// most this.
  std::int64_t tile_bram_budget() const;

 private:
  /// The menu in its historical order (arrays outer, tiles inner).
  std::vector<DseCandidate> menu(const graph::ComputationGraph& graph,
                                 const ShapeClasses& classes) const;

  FpgaDevice device_;
  Precision precision_;
  DseOptions options_;
};

}  // namespace lcmm::hw
