// Deterministic data-parallel primitives over the shared thread pool.
//
// parallel_for(n, jobs, body) runs body(0..n-1) on min(jobs, n) workers.
// The calling thread always participates and can drain every index alone:
// it then waits only for helpers already running an index, never for a
// queued one and never by running another task, so nested parallel
// sections cannot deadlock on pool starvation, and a caller is never held
// up by an unrelated task (such as another loop's whole share of a batch).
// The contract that makes parallel runs indistinguishable from serial
// ones:
//
//  * Results: parallel_map writes each result into its own index slot, so
//    the output vector is independent of scheduling.
//  * Telemetry: when the calling thread has an obs::CompileStats sink
//    installed, each index runs against a fresh per-task sink (the sink
//    pointer is thread-local) and the children are merged back into the
//    caller's registry in index order after the loop — the span/counter/
//    decision sequence is byte-identical to a serial run; only wall-clock
//    fields differ.
//  * Errors: if bodies throw, the exception for the lowest failing index
//    is rethrown after all workers finish, independent of scheduling.
//
// With jobs == 1 (or n <= 1) the body runs inline on the calling thread
// against the caller's own sink — exactly the pre-parallelism code path.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "par/jobs.hpp"

namespace lcmm::par {

/// Runs body(i) for i in [0, n) on up to `jobs` workers (0 = default_jobs()).
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& body);

/// parallel_for that collects fn(i) into a vector in index order. The
/// result type must be default-constructible and movable.
template <typename Fn>
auto parallel_map(std::size_t n, int jobs, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{}))>> {
  using Result = std::decay_t<decltype(fn(std::size_t{}))>;
  static_assert(!std::is_same_v<Result, bool>,
                "parallel_map<bool> would race on vector<bool> bit-packing; "
                "map to char or int instead");
  std::vector<Result> out(n);
  parallel_for(n, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace lcmm::par
