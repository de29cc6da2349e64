// Tensor entities: the allocation units of LCMM.
//
// Following the paper (§3.3, Fig. 7), tensor data are "categorized according
// to the node index in the computation graph, and their data sources": each
// executable layer i contributes up to four entities —
//   t_if(i)  — the input feature map it reads,
//   t_res(i) — the fused residual stream it reads (ResNet blocks),
//   t_wt(i)  — its weights,
//   t_of(i)  — the output slice it writes.
// A value consumed by several layers yields one t_if per consumer (the
// paper's f1/f2/f4 "actually contain the same data"); the producer
// dual-writes into whichever consumer buffers are on chip, which costs no
// DRAM bandwidth. An on-chip t_of skips the DRAM write; it persists to the
// value's last read, and output-residency propagation (core/lcmm.cpp) grants
// the consumers' reads on chip once every producer slice of the value is.
// An entity is identified by its key alone; tensor_name() derives its label.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace lcmm::core {

enum class TensorSource : std::uint8_t { kInput = 0, kResidual = 1, kWeight = 2, kOutput = 3 };
inline constexpr int kNumSources = 4;

std::string to_string(TensorSource s);

struct TensorKey {
  graph::LayerId layer = graph::kInvalidLayer;
  TensorSource source = TensorSource::kInput;
  auto operator<=>(const TensorKey&) const = default;
};

/// The printed name of `key`'s tensor: "<input value>@<layer>",
/// "<residual value>@<layer>.res", "<layer>.wt" or "<layer>.of". The layer
/// must exist and, for a residual key, have a residual.
std::string tensor_name(const graph::ComputationGraph& graph, TensorKey key);

/// An execution step is a layer's id: the builder appends layers in
/// execution order (graph::ComputationGraph::validate checks it). A def
/// step of kBeforeExecution marks data available before inference starts
/// (graph inputs; weights loaded from DRAM).
inline constexpr int kBeforeExecution = -1;

struct TensorEntity {
  TensorKey key;
  /// Full tensor footprint at the design precision. For t_of this is the
  /// layer's own output slice; for t_if/t_res the whole consumed value.
  std::int64_t bytes = 0;
  /// Closed liveness interval in execution steps.
  int def_step = kBeforeExecution;
  int last_use_step = 0;

  bool overlaps(const TensorEntity& other) const {
    return std::max(def_step, other.def_step) <=
           std::min(last_use_step, other.last_use_step);
  }
};

/// Which sources of each layer currently have on-chip tensor buffers.
/// This is the paper's x_d(i) indicator, packed as a per-layer bitmask.
class OnChipState {
 public:
  explicit OnChipState(std::size_t num_layers) : mask_(num_layers, 0) {}

  bool is_on(TensorKey key) const {
    return (mask_.at(static_cast<std::size_t>(key.layer)) >>
            static_cast<int>(key.source)) & 1u;
  }
  void set(TensorKey key, bool on) {
    std::uint8_t& m = mask_.at(static_cast<std::size_t>(key.layer));
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << static_cast<int>(key.source));
    m = on ? static_cast<std::uint8_t>(m | bit) : static_cast<std::uint8_t>(m & ~bit);
  }
  std::uint8_t layer_mask(graph::LayerId layer) const {
    return mask_.at(static_cast<std::size_t>(layer));
  }
  std::size_t num_layers() const { return mask_.size(); }
  /// Every layer's mask, indexed by LayerId.
  const std::vector<std::uint8_t>& masks() const { return mask_; }
  int count() const;

 private:
  std::vector<std::uint8_t> mask_;
};

}  // namespace lcmm::core
