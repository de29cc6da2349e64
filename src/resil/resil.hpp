// Umbrella header for lcmm::resil — the graceful-degradation layer: typed
// compile errors (error.hpp), overflow-checked size arithmetic
// (checked.hpp) and deterministic fault injection (fault.hpp). The UMM
// floor itself lives in core/lcmm.cpp (LcmmCompiler::compile); see
// docs/robustness.md.
#pragma once

#include "resil/checked.hpp"  // IWYU pragma: export
#include "resil/error.hpp"    // IWYU pragma: export
#include "resil/fault.hpp"    // IWYU pragma: export
