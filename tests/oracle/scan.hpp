// Test-only references: the member-scan coloring and the two-scan
// timeline that core::color_min_total_size and the simulator replaced.
// Both are quadratic (the timeline for one inference), so the
// differential tests (test_differential.cpp) can hold the fast versions to
// them bit for bit: same colors, same candidate count, same doubles. The
// coloring reference asks every color of every entity and picks by least
// growth, then least slack, so it does not rely on the size order that
// lets the library stop early.
#pragma once

#include <cstdint>
#include <vector>

#include "core/coloring.hpp"
#include "sim/timeline.hpp"

namespace lcmm::oracle {

struct ScanColoring {
  core::ColoringResult result;
  /// Each color's size (its largest member), by color index.
  std::vector<std::int64_t> color_size;
  /// The colors the library version asks over all entities (its
  /// `coloring.candidates_tried` counter): newest first, stopping at the
  /// first larger size after a fit, none for a 0-byte entity. Counted from
  /// this scan's fit results; the scan itself asks every color.
  std::int64_t candidates_tried = 0;
};

/// Best-fit-decreasing coloring that asks `interferes` of every member of
/// every candidate color.
ScanColoring scan_color_min_total_size(const core::InterferenceGraph& graph);

/// The single-inference timeline that walks every prefetch request twice
/// per step, as sim::simulate did.
sim::SimResult scan_simulate(const hw::PerfModel& model,
                             const core::AllocationPlan& plan);

}  // namespace lcmm::oracle
