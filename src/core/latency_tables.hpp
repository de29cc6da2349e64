// Operation latency table and tensor metric table (paper Fig. 7(b),(c)),
// plus the pivot compensation of Eq. 2/Eq. 4 in its general form.
//
// The paper defines a tensor's latency reduction L_d(i) as the gap between
// lat_d(i) and the next-lower latency term of node i, and compensates
// ("pivot compensation") when a larger term is still off-chip. Both rules
// are special cases of the marginal gain
//
//     gain(d | S) = node_latency(i, S) - node_latency(i, S + {d})
//
// where S is the set of node i's tensors already on-chip and
// node_latency is Eq. 1. This class evaluates node_latency for arbitrary
// on-chip masks, which also handles layers whose input-feature interface
// carries two streams (fused residual adds). It stores hw::eq1_latency for
// all 16 masks of every layer when it is built (16 doubles a layer), so
// every query is a table read: DNNK and splitting ask the same layers
// again on every re-run.
#pragma once

#include <array>
#include <vector>

#include "core/entity.hpp"
#include "hw/perf_model.hpp"

namespace lcmm::core {

class LatencyTables {
 public:
  /// Fills the table from `model`'s timings; `model` must outlive this.
  explicit LatencyTables(const hw::PerfModel& model);

  const hw::PerfModel& model() const { return *model_; }

  /// Eq. 1 latency of a layer given the per-source on-chip bitmask
  /// (bit k set == source k on-chip, as in OnChipState::layer_mask).
  /// Throws std::out_of_range for an unknown layer.
  double node_latency(graph::LayerId layer, std::uint8_t on_chip_mask) const;

  /// Marginal latency reduction of moving `source` on-chip for `layer`,
  /// given the layer's current mask. Always >= 0.
  double marginal_gain(graph::LayerId layer, TensorSource source,
                       std::uint8_t current_mask) const;

  /// The paper's L_d(i) (Eq. 2): the gain of `source` assuming every
  /// larger-latency tensor of the node is already on-chip.
  double standalone_reduction(graph::LayerId layer, TensorSource source) const;

  /// Total Eq. 1 latency over all layers under a full allocation state.
  double total_latency(const OnChipState& state) const;

 private:
  static constexpr std::size_t kMasks = 1u << kNumSources;
  const std::array<double, kMasks>& row(graph::LayerId layer) const;

  const hw::PerfModel* model_;
  /// Eq. 1 latency by layer, then by on-chip mask.
  std::vector<std::array<double, kMasks>> latency_;
};

}  // namespace lcmm::core
