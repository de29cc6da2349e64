// Buffer-merging graph coloring (paper §3.1).
//
// Unlike register allocation, the objective is not the number of colors but
// the TOTAL SIZE of the resulting buffers: a color's size is the largest
// member tensor, so packing a small tensor into a large buffer is free.
// color_min_total_size() is a best-fit-decreasing heuristic.
//
// Cost: each color keeps its members' lifespans sorted by def step. They
// are disjoint, so whether an entity without a false edge fits a color is
// one binary search, and n entities over C colors take O(n * C * log n)
// plus the sorted inserts. An entity with a false edge (splitting makes
// few) asks every member of each color, as the quadratic version did.
#pragma once

#include <cstdint>
#include <vector>

#include "core/interference.hpp"

namespace lcmm::core {

struct ColoringResult {
  /// Color (virtual-buffer index) per entity, dense in [0, num_colors).
  std::vector<int> color_of;
  int num_colors = 0;
  /// Sum over colors of the max member size.
  std::int64_t total_bytes = 0;
};

/// Greedy best-fit-decreasing coloring: entities are placed largest-first
/// into the compatible color whose current size fits them best (free slots
/// preferred, then minimal growth).
ColoringResult color_min_total_size(const InterferenceGraph& graph);

}  // namespace lcmm::core
