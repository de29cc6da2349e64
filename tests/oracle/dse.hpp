// Test-only reference: the exhaustive per-candidate DSE that
// hw::DesignSpace::argmin replaced. It evaluates an arbitrary objective on
// every menu candidate, so the tests can hold the argmin's bounded walk to
// the per-candidate PerfModel and LatencyTables objectives bit for bit.
#pragma once

#include <functional>

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
hw::DseResult explore(const graph::ComputationGraph& graph,
                      const hw::FpgaDevice& device, hw::Precision precision,
                      bool heavy_uram_use, const Objective& objective);

}  // namespace lcmm::oracle
