// Worker-count policy for the lcmm::par subsystem.
//
// The library stays serial unless somebody asks for workers. Every
// parallel entry point takes a `jobs` argument where 0 means "use the
// process default", which starts at 1 (or the LCMM_JOBS environment
// variable when set). The bench sweeps (table1_main, stress_random_graphs)
// pass jobs_from_env_or(hardware_jobs()) explicitly instead.
//
// Today default_jobs() and effective_jobs(0) select nothing: every caller
// that passes 0 workers (lcmm_compile, bench::run_pair) compiles a
// single job, which runs on one worker whatever the default says. The
// default stays only because compilebench calls set_default_jobs.
#pragma once

namespace lcmm::par {

/// Number of hardware threads, clamped to at least 1 (the standard allows
/// std::thread::hardware_concurrency() to return 0).
int hardware_jobs();

/// Process-wide default worker count used when a `jobs` argument is 0.
/// Initially LCMM_JOBS when the environment variable is set to a positive
/// integer, else 1 (serial).
int default_jobs();
void set_default_jobs(int jobs);

/// LCMM_JOBS when set to a positive integer, else `fallback`. Benches use
/// this so CI can sweep worker counts without per-bench flags.
int jobs_from_env_or(int fallback);

/// Resolves a caller-supplied `jobs` argument: 0 -> default_jobs(),
/// anything else clamped to at least 1.
int effective_jobs(int jobs);

}  // namespace lcmm::par
