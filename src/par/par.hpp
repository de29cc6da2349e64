// lcmm::par — deterministic parallel loops.
//
// The framework sits inside sweeps compiling many graphs, so the
// evaluation loops (batch compilation, bench sweeps) fan out over this
// subsystem; a single compile runs on its calling thread. Determinism is the design constraint:
// whatever the worker count, results, telemetry order and error selection
// are bitwise identical to a serial run (see parallel_for.hpp for the
// contract and docs/parallelism.md for the full thread-safety story).
#pragma once

#include "par/jobs.hpp"          // IWYU pragma: export
#include "par/parallel_for.hpp"  // IWYU pragma: export
