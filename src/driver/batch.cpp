#include "driver/batch.hpp"

#include <exception>

#include "par/parallel_for.hpp"
#include "resil/fault.hpp"
#include "util/logging.hpp"

namespace lcmm::driver {

namespace {

/// One attempt at a job: compile (and simulate) every requested design,
/// checking the deadline at each phase boundary.
void run_job(const BatchJob& job, const resil::Deadline& deadline,
             BatchOutcome& out) {
  resil::fault::hit("driver.job");
  const core::LcmmCompiler compiler(job.device, job.precision, job.options);
  if (job.want_lcmm) {
    deadline.check("driver.lcmm");
    // compile() builds the UMM baseline for its fallback anyway: ship that
    // one instead of exploring the design space a second time.
    out.lcmm_plan =
        compiler.compile(job.graph, job.want_umm ? &out.umm_plan : nullptr);
  } else if (job.want_umm) {
    deadline.check("driver.umm");
    out.umm_plan = compiler.compile_umm(job.graph);
  }
  if (job.want_umm) {
    deadline.check("driver.simulate");
    out.umm_sim = sim::simulate(job.graph, out.umm_plan);
    out.umm_report = sim::make_report(job.graph, out.umm_plan, out.umm_sim);
  }
  if (job.want_lcmm) {
    deadline.check("driver.simulate");
    out.lcmm_sim = sim::simulate(job.graph, out.lcmm_plan);
    out.lcmm_report = sim::make_report(job.graph, out.lcmm_plan, out.lcmm_sim);
  }
}

}  // namespace

std::vector<BatchOutcome> compile_many(const std::vector<BatchJob>& jobs,
                                       int workers) {
  return par::parallel_map(jobs.size(), workers, [&](std::size_t i) {
    const BatchJob& job = jobs[i];
    BatchOutcome out;
    out.label = job.label.empty() ? job.graph.name() : job.label;
    // One fault budget for the whole job, spanning retries: a one-shot
    // injected fault fails the first attempt and proves the retry works.
    resil::fault::Scope fault_scope;
    // The deadline also spans retries — a retry is not a budget refill.
    const resil::Deadline deadline(job.timeout_s);
    const int max_attempts = job.max_attempts > 0 ? job.max_attempts : 1;
    for (int attempt = 1;; ++attempt) {
      out.attempts = attempt;
      try {
        run_job(job, deadline, out);
        out.error.clear();
        out.error_info = {};
        out.timed_out = false;
        break;
      } catch (const std::exception& e) {
        const resil::ErrorInfo info = resil::describe(e);
        out = BatchOutcome{};
        out.label = job.label.empty() ? job.graph.name() : job.label;
        out.attempts = attempt;
        out.error = e.what();
        if (out.error.empty()) out.error = "unknown error";
        out.error_info = info;
        out.timed_out = info.code == resil::Code::kJobTimeout;
        // --strict asks to fail on the first typed error: no job retry.
        if (!out.timed_out && !job.options.strict && attempt < max_attempts &&
            resil::is_transient(info.code)) {
          LCMM_WARN() << "batch job '" << out.label << "': transient "
                      << resil::code_id(info.code) << ", attempt " << attempt
                      << "/" << max_attempts << " retrying";
          continue;
        }
        break;
      }
    }
    return out;
  });
}

}  // namespace lcmm::driver
