// Interference graph over tensor entities (paper Fig. 5(a)).
//
// Two entities interfere when their liveness intervals share an execution
// step — they can then never occupy the same buffer. The buffer-splitting
// pass (§3.4) additionally inserts *false* interference edges to force two
// compatible tensors apart when sharing would cause misspilling.
//
// The real edges are never stored: a query compares the two lifespans.
// Only the false edges are kept, in a short list that a query consults
// only when both entities have one.
//
// Every lifespan is a closed step interval that starts no earlier than
// kBeforeExecution and does not end before it starts, so two lifespans
// interfere exactly when they share a step. Coloring's step sets rely on
// this; the constructor rejects any other entity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/entity.hpp"

namespace lcmm::core {

class InterferenceGraph {
 public:
  /// Interval-overlap interference for `entities`. Throws
  /// resil::OptionError(kBadArgument) for an entity whose def step is past
  /// its last use or before kBeforeExecution.
  explicit InterferenceGraph(std::vector<TensorEntity> entities);

  const std::vector<TensorEntity>& entities() const { return entities_; }
  std::size_t size() const { return entities_.size(); }
  /// Whether any false edge touches entity `i`.
  bool has_false_edge(std::size_t i) const { return has_false_edge_[i] != 0; }

  /// Overlapping lifespans or a false edge; an entity interferes with
  /// itself. Throws std::out_of_range for an unknown entity.
  bool interferes(std::size_t a, std::size_t b) const;
  /// Adds a false lifespan-overlap edge (buffer splitting). Idempotent; a
  /// pair whose lifespans overlap stays a real edge.
  void add_false_edge(std::size_t a, std::size_t b);
  bool is_false_edge(std::size_t a, std::size_t b) const;
  std::size_t num_false_edges() const { return false_edges_.size(); }
  /// The false edges as (smaller, larger) entity index, in insertion order.
  const std::vector<std::pair<std::size_t, std::size_t>>& false_edges() const {
    return false_edges_;
  }

  /// Real plus false edges, counted on demand.
  std::size_t num_edges() const;
  /// Unordered entity pairs: exactly n*(n-1)/2.
  std::size_t adjacency_cells() const {
    const std::size_t n = entities_.size();
    return n >= 2 ? n * (n - 1) / 2 : 0;
  }

 private:
  void check_pair(std::size_t a, std::size_t b) const;
  bool listed(std::size_t a, std::size_t b) const;

  std::vector<TensorEntity> entities_;
  /// One byte per entity: 1 once a false edge touches it.
  std::vector<std::uint8_t> has_false_edge_;
  /// False edges as (smaller, larger) entity index.
  std::vector<std::pair<std::size_t, std::size_t>> false_edges_;
};

}  // namespace lcmm::core
