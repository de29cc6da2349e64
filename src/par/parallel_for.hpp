// Deterministic data-parallel map over threads started per call.
//
// parallel_map(n, jobs, fn) runs fn(0..n-1) on min(jobs, n) workers: the
// calling thread and min(jobs, n) - 1 helper threads it starts, which
// claim indices from one shared counter and are all joined before the
// call returns. No thread outlives the call, and no call waits on
// another's threads. The contract that makes parallel runs
// indistinguishable from serial ones:
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

namespace detail {

/// The type-erased loop behind parallel_map: runs body(i) for i in [0, n)
/// on up to `jobs` workers (0 = default_jobs()).
void for_each_index(std::size_t n, int jobs,
                    const std::function<void(std::size_t)>& body);

}  // namespace detail

/// Collects fn(i) for i in [0, n) into a vector in index order, on up to
/// `jobs` workers (0 = default_jobs()). The result type must be
/// default-constructible and movable.
template <typename Fn>
auto parallel_map(std::size_t n, int jobs, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{}))>> {
  using Result = std::decay_t<decltype(fn(std::size_t{}))>;
  static_assert(!std::is_same_v<Result, bool>,
                "parallel_map<bool> would race on vector<bool> bit-packing; "
                "map to char or int instead");
  std::vector<Result> out(n);
  detail::for_each_index(n, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace lcmm::par
