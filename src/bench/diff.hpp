// Bench-run comparison (the perf-regression gate): takes a recorded
// baseline run and a fresh run of the same suite, applies a per-metric
// tolerance spec, and classifies every metric as improvement / within
// tolerance / regression / missing / new. Model-kind metrics gate (CI
// fails on regression or on a baseline metric that disappeared);
// wall-clock metrics are reported but never gate — shared runners make
// wall time untrustworthy (docs/benchmarking.md).
//
// Tolerance spec: a line-based text format, most-specific rule LAST
// (the last matching rule wins):
//
//   # comment
//   default                          rel=0.02
//   table1_main/latency_ms*          rel=0.05 abs=0.001
//   golden_plans/*                   rel=0 abs=0
//
// A pattern is a glob (`*`, `?`) matched against "<suite>/<metric key>",
// e.g. "table1_main/speedup{net=RN,precision=int8}". `default` replaces
// the built-in fallback tolerance (2% relative).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "bench/bench.hpp"

namespace lcmm::bench {

struct Tolerance {
  double rel = 0.0;  ///< Allowed |delta| as a fraction of |baseline|.
  double abs = 0.0;  ///< Allowed |delta| in the metric's own unit.
};

/// Simple glob: `*` matches any run (including empty), `?` one character.
bool glob_match(std::string_view pattern, std::string_view text);

class ToleranceSpec {
 public:
  struct Rule {
    std::string pattern;
    Tolerance tol;
  };

  /// Parses the text format above. Throws std::runtime_error with a line
  /// number on malformed input.
  static ToleranceSpec parse(std::string_view text);
  static ToleranceSpec load(const std::string& path);

  /// The tolerance for a metric: the last rule whose pattern matches
  /// "<suite>/<key>", else the default (2% relative unless overridden).
  Tolerance lookup(const std::string& suite, const Metric& metric) const;

  const std::vector<Rule>& rules() const { return rules_; }
  const Tolerance& fallback() const { return fallback_; }

 private:
  std::vector<Rule> rules_;
  Tolerance fallback_{0.02, 0.0};
};

enum class Verdict {
  kImprovement,      ///< Beyond tolerance in the better direction.
  kWithinTolerance,  ///< |delta| inside the tolerance envelope.
  kRegression,       ///< Beyond tolerance in the worse direction. Gates.
  kMissing,          ///< In the baseline, absent from the fresh run. Gates.
  kNew,              ///< In the fresh run only; record a new baseline.
};

const char* to_string(Verdict v);

struct MetricDelta {
  std::string key;
  std::string unit;
  Direction direction = Direction::kLowerIsBetter;
  Kind kind = Kind::kModel;
  bool has_base = false, has_current = false;
  double base = 0.0, current = 0.0;
  Tolerance tolerance;
  Verdict verdict = Verdict::kWithinTolerance;
  /// Whether this delta participates in the exit-code gate (model kind
  /// only: wall-clock metrics never gate).
  bool gates = false;

  double delta() const { return current - base; }
  /// Relative change vs the baseline; 0 when the baseline is 0 and the
  /// value did not move, otherwise infinity for a from-zero change.
  double rel_change() const;
};

struct DiffResult {
  std::string suite;
  std::vector<MetricDelta> deltas;  ///< Baseline order, then new metrics.
  int regressions = 0;  ///< Gating regressions.
  int improvements = 0;
  int missing = 0;  ///< Gating missing metrics.
  int added = 0;
  bool gate_failed = false;
};

/// Compares `current` against `baseline`; a gating baseline metric that
/// is missing from `current` fails the gate. Throws std::runtime_error
/// when the two runs come from different suites.
DiffResult diff_runs(const BenchRun& baseline, const BenchRun& current,
                     const ToleranceSpec& spec);

/// Renderers for the delta table. Text goes to terminals/CI logs;
/// Markdown goes to PR summaries ($GITHUB_STEP_SUMMARY) and artifacts.
std::string render_text(const DiffResult& result);
std::string render_markdown(const DiffResult& result);

}  // namespace lcmm::bench
