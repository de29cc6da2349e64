// Buffer-merging graph coloring (paper §3.1).
//
// Unlike register allocation, the objective is not the number of colors but
// the TOTAL SIZE of the resulting buffers: a color's size is the largest
// member tensor, so packing a small tensor into a large buffer is free.
// color_min_total_size() is a best-fit-decreasing heuristic. Entities go
// largest first, so a color's size is that of the member that opened it,
// and sizes never rise with the color index. The tightest fit is thus the
// fitting color of smallest size, lowest index on a tie: a scan back from
// the newest color finds it and stops at the first larger size after a
// fit. A fresh color opens when none fits, and for a 0-byte entity, which
// asks none.
//
// Cost: each color keeps its members' lifespans sorted by def step. They
// are disjoint, so whether an entity without a false edge fits a color is
// one binary search. n entities over C colors take O(n * C * log n) plus
// the sorted inserts only when the scans reach color 0, as when nothing
// fits. An entity with a false edge (splitting makes few) asks every
// member of each color it asks.
#pragma once

#include <cstdint>
#include <vector>

#include "core/interference.hpp"

namespace lcmm::core {

struct ColoringResult {
  /// Color (virtual-buffer index) per entity, dense in [0, num_colors).
  std::vector<int> color_of;
  int num_colors = 0;
  /// Sum over colors of their size, the largest (first) member's bytes.
  std::int64_t total_bytes = 0;
};

/// Greedy best-fit-decreasing coloring: entities are placed largest first,
/// each into the smallest compatible color (lowest index on a tie), or into
/// a fresh color of its own size when none is compatible or it has 0 bytes.
ColoringResult color_min_total_size(const InterferenceGraph& graph);

}  // namespace lcmm::core
