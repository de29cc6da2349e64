#include "par/parallel_for.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <thread>

#include "obs/stats.hpp"

namespace lcmm::par::detail {

namespace {

/// Everything a worker records about one index, merged deterministically
/// by the calling thread after the loop.
struct TaskState {
  std::unique_ptr<obs::CompileStats> stats;
  double start_offset_s = 0.0;  ///< Task epoch relative to the parent sink.
  std::exception_ptr error;
};

}  // namespace

void for_each_index(std::size_t n, int jobs,
                    const std::function<void(std::size_t)>& body) {
  const std::size_t worker_budget = static_cast<std::size_t>(effective_jobs(jobs));
  const std::size_t workers = worker_budget < n ? worker_budget : n;
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  obs::CompileStats* const parent = obs::current();
  std::vector<TaskState> tasks(n);
  std::atomic<std::size_t> next{0};

  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      TaskState& task = tasks[i];
      obs::CompileStats* sink = nullptr;
      if (parent != nullptr) {
        task.start_offset_s = parent->elapsed_s();
        task.stats = std::make_unique<obs::CompileStats>();
        sink = task.stats.get();
      }
      obs::CompileStats* const previous = obs::set_current(sink);
      try {
        body(i);
      } catch (...) {
        task.error = std::current_exception();
      }
      obs::set_current(previous);
    }
  };

  {
    // The calling thread is worker 0. Leaving this scope joins every
    // helper, also when starting one throws.
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(drain);
    drain();
  }

  // Deterministic epilogue: telemetry merges and the error choice depend
  // only on index order, never on which worker ran what.
  if (parent != nullptr) {
    for (const TaskState& task : tasks) {
      if (task.stats) parent->merge_child(*task.stats, task.start_offset_s);
    }
  }
  for (const TaskState& task : tasks) {
    if (task.error) std::rethrow_exception(task.error);
  }
}

}  // namespace lcmm::par::detail
