// Test-only references: the member-scan coloring and the two-scan
// timeline that core::color_min_total_size and the simulator replaced.
// Both are quadratic and kept as they were (the timeline for one
// inference), so the differential tests (test_differential.cpp) can hold
// the fast versions to them bit for bit: same colors, same candidate
// count, same doubles.
#pragma once

#include <cstdint>

#include "core/coloring.hpp"
#include "sim/timeline.hpp"

namespace lcmm::oracle {

struct ScanColoring {
  core::ColoringResult result;
  /// Colors tried over all entities (the `coloring.candidates_tried`
  /// counter of the library version).
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
