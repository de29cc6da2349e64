// DNNK: the DNN-knapsack on-chip memory allocator (paper §3.3, Alg. 1).
//
// Items are virtual buffers; the capacity is the on-chip memory left after
// the tile buffers; the value of a buffer is the latency reduction of its
// member tensors with pivot compensation — a tensor's gain only counts up
// to the next-larger transfer term of its node that is still off-chip.
// The DP follows the paper: rows are buffers, columns are capacities, the
// compensation term is read from the partial allocation table pbuf_table,
// and the final allocation is recovered by a backtrace.
//
// A buffer holds at most one tensor of a layer; dnnk_allocate raises
// OptionError(kBadArgument) for one that holds two when it runs the DP.
// Coloring guarantees this: every tensor of layer L is live at step L (its
// input and residual end there, its output starts there, its weight's
// prefetch window ends there), and touching lifespans interfere. So a
// member's compensation reads only earlier buffers' pbuf_table bits. Each
// row builds its members' column-independent terms once (marginal gains
// per reachable mask, table reads from LatencyTables; the distinct owner
// rows, deduplicated by a per-row stamp) and cuts its columns into runs of
// equal owner state. Each run sums its member gains once, in member order, and a
// cell adds that sum once to prev[j - size].
//
// When every buffer fits, the DP does not run. Let s_i be buffer i's
// quantized size, S_i = s_0 + ... + s_i, and w_cap = capacity_bytes /
// granularity_bytes, the last DP column. If S_{n-1} <= w_cap, dnnk_allocate
// selects every buffer and returns evaluate_selection of that selection:
// the same selection, bytes_used, state and gain_s that the DP returns,
// because the DP selects every buffer there:
//   - Every member gain is an Eq. 1 marginal reduction, so it is >= 0, and
//     so is a run's sum of them.
//   - A cell takes on a tie: it skips only when prev[j] > take strictly.
//   - By induction on rows (before row 0, prev is 0 in every column), row i
//     takes at every column j >= S_i, and its value there is one constant.
//     At such j every owner bit it reads is 1 (row k < i took at
//     j >= S_k), so j lies in one run and its run sum is the same in every
//     such column; prev[j - s_i] is row i-1's constant, since
//     j - s_i >= S_{i-1}; adding a run sum >= 0 never rounds below that
//     constant, which is also prev[j], so the cell takes.
//   - So the backtrace from w_cap >= S_{n-1} stays at j >= S_i in every row
//     i and selects every buffer.
//   - NaN gains give the same result: the comparison is false, so the cell
//     takes.
//
// Two reference allocators share the result type: a value-density greedy
// (ablation baseline) and an exhaustive search (test oracle).
#pragma once

#include <cstdint>
#include <vector>

#include "core/latency_tables.hpp"
#include "core/virtual_buffer.hpp"

namespace lcmm::core {

struct AllocatorOptions {
  /// DP capacity granularity. Defaults to one URAM block, matching the
  /// paper's block-quantized buffer sizes (Tab. 2).
  std::int64_t granularity_bytes = 288 * 1024 / 8;
};

struct AllocatorResult {
  /// Per virtual buffer: allocated physical on-chip memory (y_k).
  std::vector<bool> buffer_on_chip;
  /// Per (layer, source) tensor state implied by the buffer decisions.
  OnChipState state{0};
  /// Sum of allocated buffer sizes, quantized to the DP granularity.
  std::int64_t bytes_used = 0;
  /// TRUE latency reduction vs UMM under the final state (always evaluated
  /// through Eq. 1, independent of the DP's internal approximations).
  double gain_s = 0.0;
};

/// Alg. 1. `capacity_bytes` is R_sram. Each buffer holds at most one tensor
/// of a layer (see above).
AllocatorResult dnnk_allocate(const InterferenceGraph& graph,
                              const std::vector<VirtualBuffer>& buffers,
                              const LatencyTables& tables,
                              std::int64_t capacity_bytes,
                              const AllocatorOptions& options = {});

/// Value-density greedy (gain/size with standalone gains), for ablation.
AllocatorResult greedy_allocate(const InterferenceGraph& graph,
                                const std::vector<VirtualBuffer>& buffers,
                                const LatencyTables& tables,
                                std::int64_t capacity_bytes,
                                const AllocatorOptions& options = {});

/// Exhaustive optimum over buffer subsets (test oracle; throws
/// std::invalid_argument when there are more than `max_buffers` buffers).
AllocatorResult exact_allocate(const InterferenceGraph& graph,
                               const std::vector<VirtualBuffer>& buffers,
                               const LatencyTables& tables,
                               std::int64_t capacity_bytes,
                               const AllocatorOptions& options = {},
                               std::size_t max_buffers = 16);

/// Evaluates the true gain and tensor state of a given buffer selection.
AllocatorResult evaluate_selection(const InterferenceGraph& graph,
                                   const std::vector<VirtualBuffer>& buffers,
                                   const LatencyTables& tables,
                                   const std::vector<bool>& selection,
                                   const AllocatorOptions& options);

/// Quantized size of a buffer in DP units.
std::int64_t quantized_units(std::int64_t bytes, const AllocatorOptions& options);

}  // namespace lcmm::core
