// Test-only coloring references: the exhaustive minimum-total-size
// coloring that bounds core::color_min_total_size from below on small
// graphs, and the pairwise validity check.
#pragma once

#include <cstddef>

#include "core/coloring.hpp"

namespace lcmm::oracle {

/// Exhaustive minimum-total-size coloring via set-partition enumeration.
/// Only for small graphs: above `max_entities` it throws
/// resil::OptionError (kGraphTooLarge).
core::ColoringResult color_optimal_small(const core::InterferenceGraph& graph,
                                         std::size_t max_entities = 12);

/// True iff every entity has a color in [0, num_colors) and no two
/// entities sharing a color interfere.
bool coloring_is_valid(const core::InterferenceGraph& graph,
                       const core::ColoringResult& result);

}  // namespace lcmm::oracle
