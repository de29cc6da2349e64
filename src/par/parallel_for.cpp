#include "par/parallel_for.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "obs/stats.hpp"
#include "par/thread_pool.hpp"
#include "resil/fault.hpp"

namespace lcmm::par {

namespace {

/// Everything a worker records about one index, merged deterministically
/// by the calling thread after the loop.
struct TaskState {
  std::unique_ptr<obs::CompileStats> stats;
  double start_offset_s = 0.0;  ///< Task epoch relative to the parent sink.
  std::exception_ptr error;
};

}  // namespace

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t worker_budget = static_cast<std::size_t>(effective_jobs(jobs));
  const std::size_t workers = worker_budget < n ? worker_budget : n;
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      // Same injection point as the parallel path, so LCMM_FAULT=par.task
      // behaves identically for one worker and many.
      resil::fault::hit("par.task");
      body(i);
    }
    return;
  }

  obs::CompileStats* const parent = obs::current();
  // Workers join the caller's fault budget the same way they adopt its
  // stats sink: the per-operation hit counter rides into every task.
  resil::fault::State* const fault_state = resil::fault::current_state();
  std::vector<TaskState> tasks(n);
  // What the helpers share with the caller. It outlives the call: a helper
  // that starts after the caller has drained every index finds `closed`
  // and returns without touching anything else.
  struct Loop {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable idle;
    int active = 0;  ///< Helpers inside drain().
    bool closed = false;
  };
  const auto loop = std::make_shared<Loop>();

  const auto drain = [&] {
    for (;;) {
      const std::size_t i = loop->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      TaskState& task = tasks[i];
      obs::CompileStats* sink = nullptr;
      if (parent != nullptr) {
        task.start_offset_s = parent->elapsed_s();
        task.stats = std::make_unique<obs::CompileStats>();
        sink = task.stats.get();
      }
      obs::CompileStats* const previous = obs::set_current(sink);
      const resil::fault::StateGuard fault_guard(fault_state);
      try {
        resil::fault::hit("par.task");
        body(i);
      } catch (...) {
        task.error = std::current_exception();
      }
      obs::set_current(previous);
    }
  };

  // The calling thread is worker 0; the pool supplies the rest. A helper
  // still queued when the caller has drained every index is not waited
  // for: when this loop runs inside a pool task, every pool thread may be
  // a caller just like us, and that helper might never start.
  ThreadPool& pool = ThreadPool::global();
  pool.ensure_threads(static_cast<int>(workers) - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.submit([loop, &drain] {
      {
        std::lock_guard<std::mutex> lock(loop->mutex);
        if (loop->closed) return;
        ++loop->active;
      }
      drain();
      std::lock_guard<std::mutex> lock(loop->mutex);
      --loop->active;
      loop->idle.notify_one();
    });
  }
  drain();
  {
    std::unique_lock<std::mutex> lock(loop->mutex);
    loop->closed = true;
    loop->idle.wait(lock, [&] { return loop->active == 0; });
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

}  // namespace lcmm::par
