// Test-only references: the exhaustive per-candidate DSE that
// hw::DesignSpace::argmin replaced, and the menu's BRAM filter restated
// tile by tile. The first evaluates an arbitrary objective on every menu
// candidate, so the tests can hold the argmin's bounded walk to the
// per-candidate PerfModel and LatencyTables objectives bit for bit.
#pragma once

#include <functional>
#include <vector>

#include "hw/dse.hpp"

namespace lcmm::oracle {

/// Latency objective: maps a complete design to estimated seconds.
using Objective = std::function<double(const hw::AcceleratorDesign&)>;

/// Evaluates `objective` on every candidate of `graph`'s menu
/// (hw::Dse(device, precision).space(graph).menu()), at the clock that
/// `heavy_uram_use` implies, and returns the lexicographic minimum of
/// (latency, DSP cost, menu index) over the finite latencies. Throws
/// resil::CompileError(kNoFeasibleDesign) if no candidate fits or no
/// latency is finite.
/// The square tiles of the menu axes that are legal for `array` on
/// `graph`: their whole-graph tile_buffer_bytes fit the BRAM budget of
/// hw::Dse(device, precision), and their tc feeds the array's SIMD lanes.
/// In menu order: tc outer, then spatial.
std::vector<hw::TileConfig> tile_candidates(
    const graph::ComputationGraph& graph, const hw::FpgaDevice& device,
    hw::Precision precision, const hw::SystolicArrayConfig& array);

hw::DseResult explore(const graph::ComputationGraph& graph,
                      const hw::FpgaDevice& device, hw::Precision precision,
                      bool heavy_uram_use, const Objective& objective);

}  // namespace lcmm::oracle
