// Umbrella header for the LCMM library: layer-conscious memory management
// for FPGA-based DNN accelerators (Wei, Liang, Cong — DAC 2019).
//
// Typical use:
//
//   auto net = lcmm::models::build_googlenet();
//   lcmm::core::LcmmCompiler compiler(lcmm::hw::FpgaDevice::vu9p(),
//                                     lcmm::hw::Precision::kInt16);
//   lcmm::core::AllocationPlan umm;            // the UMM baseline
//   auto plan = compiler.compile(net, &umm);   // the plan that ships
//   auto sim = lcmm::sim::simulate(net, plan);
//   // sim.total_s vs lcmm::sim::simulate(net, umm).total_s
#pragma once

#include "core/lcmm.hpp"      // IWYU pragma: export
#include "driver/batch.hpp"   // IWYU pragma: export
#include "graph/dot.hpp"      // IWYU pragma: export
#include "graph/graph.hpp"    // IWYU pragma: export
#include "hw/dse.hpp"         // IWYU pragma: export
#include "hw/roofline.hpp"    // IWYU pragma: export
#include "models/models.hpp"  // IWYU pragma: export
#include "obs/obs.hpp"        // IWYU pragma: export
#include "par/par.hpp"        // IWYU pragma: export
#include "resil/resil.hpp"    // IWYU pragma: export
#include "sim/memory_trace.hpp"  // IWYU pragma: export
#include "sim/report.hpp"        // IWYU pragma: export
#include "sim/timeline.hpp"      // IWYU pragma: export
#include "util/table.hpp"        // IWYU pragma: export
