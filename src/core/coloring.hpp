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
// Cost: each color keeps the set of steps its members hold, as a bitset
// over [min def step, max last use step], 64 steps a word. Lifespans are
// closed (InterferenceGraph checks it), so an entity overlaps a member
// exactly when its span's bits meet the set: a color asked costs the words
// under the entity's span, ceil(span / 64) or one more, whatever the
// color's member count. An entity with a false edge (splitting makes few)
// also fails a color that already holds one of its partners, a walk of
// the graph's false-edge list. The step sets take colors * ceil(steps / 64)
// words, where steps is the whole step range.
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
