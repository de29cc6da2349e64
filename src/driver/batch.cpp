#include "driver/batch.hpp"

#include <exception>

#include "par/parallel_for.hpp"

namespace lcmm::driver {

namespace {

/// Compiles every requested design of a job and reports each from the
/// simulation its compile ran.
void run_job(const BatchJob& job, BatchOutcome& out) {
  const core::LcmmCompiler compiler(job.device, job.precision, job.options);
  if (job.want_lcmm) {
    // compile() builds and simulates the UMM baseline for its fallback
    // anyway: ship that one instead of exploring the design space again.
    const bool umm = job.want_umm;
    out.lcmm_plan = compiler.compile(job.graph, umm ? &out.umm_plan : nullptr,
                                     umm ? &out.umm_sim : nullptr, &out.lcmm_sim);
  } else if (job.want_umm) {
    out.umm_plan = compiler.compile_umm(job.graph);
    out.umm_sim = sim::simulate(job.graph, out.umm_plan);
  }
  if (job.want_umm) {
    out.umm_report = sim::make_report(job.graph, out.umm_plan, out.umm_sim);
  }
  if (job.want_lcmm) {
    out.lcmm_report = sim::make_report(job.graph, out.lcmm_plan, out.lcmm_sim);
  }
}

}  // namespace

std::vector<BatchOutcome> compile_many(const std::vector<BatchJob>& jobs,
                                       int workers) {
  return par::parallel_map(jobs.size(), workers, [&](std::size_t i) {
    const BatchJob& job = jobs[i];
    BatchOutcome out;
    try {
      run_job(job, out);
    } catch (const std::exception& e) {
      out = BatchOutcome{};
      out.error = e.what();
      if (out.error.empty()) out.error = "unknown error";
      out.error_info = resil::describe(e);
    }
    out.label = job.label.empty() ? job.graph.name() : job.label;
    out.attempts = 1;
    return out;
  });
}

}  // namespace lcmm::driver
