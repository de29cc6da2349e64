// Compiler observability: pass-level spans, counters and decision records.
//
// The LCMM compiler is a pipeline of analysis passes (liveness ->
// interference/coloring -> prefetch PDG -> DNNK knapsack -> splitting)
// wrapped in a DSE loop, and its own runtime matters: the framework is
// meant to sit inside design-space sweeps compiling many graphs. This
// module gives every pass a wall-clock span, named counters for the work
// it performed (interference edges, DP cells, backtrace steps, ...) and a
// record of every allocation decision with its reject reason, all
// collected into a per-compilation CompileStats registry.
//
// Collection is opt-in: instrumentation macros (obs/scope.hpp) write to a
// thread-local sink pointer that is null unless a StatsSession is alive on
// that thread, so the disabled cost is one pointer load per site. Because
// the sink is per-thread, a registry itself needs no locks: worker threads
// spawned by lcmm::par run against fresh per-task registries, and
// parallel_map merges them back into the spawning thread's registry in
// index order (merge_child), so collected stats are deterministic no
// matter how many workers ran (see docs/parallelism.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lcmm::obs {

/// One timed region of the compiler, e.g. a pass invocation. Spans nest:
/// `parent` indexes into CompileStats::spans() (-1 for roots) and `depth`
/// is the nesting level, so exporters can rebuild the tree without a
/// second pass. Counters and gauges attach to the innermost open span.
struct Span {
  std::string name;
  int parent = -1;
  int depth = 0;
  double start_s = 0.0;  ///< Relative to the registry's epoch.
  double dur_s = 0.0;    ///< 0 while the span is still open.
  bool open = false;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
};

/// Why a tensor buffer did or did not end up on chip. `pass` is the name
/// of the span that was innermost when the decision was recorded.
struct Decision {
  std::string pass;
  std::string subject;
  std::int64_t bytes = 0;
  bool accepted = false;
  std::string reason;
};

/// Per-compilation registry of spans, counters, gauges and decisions.
/// Instrumented code reaches it through the global sink (current());
/// instantiate a StatsSession to install one.
class CompileStats {
 public:
  CompileStats();

  /// Opens a span nested under the innermost open one; returns its id.
  int begin_span(std::string name);
  /// Closes the span. Out-of-order closes close intervening spans too, so
  /// an early return inside RAII scopes cannot corrupt the stack.
  void end_span(int id);

  /// Adds `delta` to a counter on the innermost open span (or to a
  /// registry-level root scope when no span is open).
  void count(const std::string& name, std::int64_t delta = 1);
  /// Sets a gauge (last write wins) on the innermost open span.
  void gauge(const std::string& name, double value);
  /// Records an allocation decision under the innermost open span's name.
  void decide(std::string subject, std::int64_t bytes, bool accepted,
              std::string reason);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Decision>& decisions() const { return decisions_; }
  /// Counters recorded outside any span.
  const std::map<std::string, std::int64_t>& root_counters() const {
    return root_counters_;
  }

  /// Innermost open span id, -1 when none.
  int current_span() const;
  /// Name of the innermost open span, "" when none.
  std::string_view current_span_name() const;

  // -- Aggregations (used by tests, benches and the JSON exporter) --

  /// Sum of a counter. A bare name ("dp_cells") sums across every span and
  /// the root scope; a qualified name ("dnnk.dp_cells") restricts the sum
  /// to spans with that name. Counter names contain no dots by convention.
  std::int64_t counter(std::string_view name) const;
  /// Total wall time of all spans with this name (nested same-name spans
  /// are each counted; the compiler never self-nests a pass).
  double span_seconds(std::string_view name) const;
  /// Number of spans with this name.
  int span_count(std::string_view name) const;
  /// All counters summed across spans, keyed "span_name.counter_name"
  /// (root-scope counters keep their bare name).
  std::map<std::string, std::int64_t> aggregate_counters() const;

  /// Appends a child registry produced by a parallel worker: spans are
  /// re-rooted under the currently innermost open span (parents, depths and
  /// start times adjusted; `start_offset_s` is the child's epoch relative
  /// to this registry's), root counters land where a serial run would have
  /// counted them, and decisions recorded outside any child span inherit
  /// the innermost open span's name. lcmm::par calls this in spawn order,
  /// which is what makes collected stats worker-count independent.
  void merge_child(const CompileStats& child, double start_offset_s);

  /// Seconds since this registry was created.
  double elapsed_s() const;

 private:
  using Clock = std::chrono::steady_clock;
  double now_s() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< Stack of open span ids.
  std::map<std::string, std::int64_t> root_counters_;
  std::vector<Decision> decisions_;
};

/// The calling thread's sink (null = disabled). The pointer is
/// thread-local: a StatsSession binds to the thread that created it, and
/// lcmm::par installs per-task child registries on its workers.
CompileStats* current();
/// Installs `stats` as the calling thread's sink; returns the previous one.
CompileStats* set_current(CompileStats* stats);

/// RAII collection scope: installs a fresh CompileStats as the calling
/// thread's sink for its lifetime and restores the previous sink on
/// destruction, so sessions nest (an outer bench session is shadowed, not
/// clobbered, by an inner one).
class StatsSession {
 public:
  StatsSession() : previous_(set_current(&stats_)) {}
  ~StatsSession() { set_current(previous_); }
  StatsSession(const StatsSession&) = delete;
  StatsSession& operator=(const StatsSession&) = delete;

  CompileStats& stats() { return stats_; }
  const CompileStats& stats() const { return stats_; }

 private:
  CompileStats stats_;
  CompileStats* previous_;
};

/// RAII span over the current sink; no-op when collection is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : sink_(current()), id_(sink_ ? sink_->begin_span(name) : -1) {}
  ~ScopedSpan() {
    if (sink_) sink_->end_span(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  CompileStats* sink_;
  int id_;
};

}  // namespace lcmm::obs
