// lcmm::bench — the machine-readable bench harness every bench binary
// links. A bench registers named metrics (simulated latency, speedups,
// DRAM bytes, buffer footprints, allocator-quality ratios, compile wall
// time), tags each with dimensions (net, precision, capacity, ...), and
// the harness emits a stable JSON document ("lcmm-bench-v1") alongside
// the human-readable tables when the binary is run with --json=<path>.
//
// Metrics carry two gate-relevant attributes:
//   direction — whether a larger value is an improvement (speedup, Tops)
//               or a regression (latency, bytes, stalls);
//   kind      — kModel values come from the analytical model / simulator
//               and are bit-deterministic across runs and worker counts,
//               so CI gates on them; kWall values are host wall-clock and
//               are recorded for trend plots but never gate a PR.
//
// The comparator half of the loop lives in bench/diff.hpp; the CI wiring
// is documented in docs/benchmarking.md.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace lcmm::bench {

/// Schema tag of the emitted document; bump only with a migration note in
/// docs/benchmarking.md.
inline constexpr const char* kSchema = "lcmm-bench-v1";

enum class Direction { kHigherIsBetter, kLowerIsBetter };
enum class Kind { kModel, kWall };

const char* to_string(Direction d);
const char* to_string(Kind k);

/// Dimension tags ("net" -> "RN", "precision" -> "int8"). std::map keeps
/// the rendered key order deterministic.
using Dims = std::map<std::string, std::string>;

struct Metric {
  std::string name;  ///< What is measured ("latency_ms", "speedup").
  Dims dims;         ///< Where it was measured ({net, precision, ...}).
  double value = 0.0;
  std::string unit;  ///< "ms", "x", "bytes", "count", "ratio", "s", ...
  Direction direction = Direction::kLowerIsBetter;
  Kind kind = Kind::kModel;

  /// Stable identity within a run: `name{k=v,k=v}` ("latency_ms{net=RN,
  /// precision=int8}"), or just `name` when there are no dims. The diff
  /// tool matches baseline and current metrics on this key.
  std::string key() const;
};

/// One bench invocation's metric registry.
class BenchRun {
 public:
  BenchRun() = default;
  explicit BenchRun(std::string suite) : suite_(std::move(suite)) {}

  const std::string& suite() const { return suite_; }

  /// Registers a metric. Throws std::logic_error on a duplicate key —
  /// two metrics the diff tool cannot tell apart are a bench bug.
  void add(std::string name, double value, std::string unit, Direction dir,
           Dims dims = {}, Kind kind = Kind::kModel);
  /// Wall-clock convenience (seconds, lower-is-better, never gated).
  void add_wall(std::string name, double seconds, Dims dims = {});

  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Lookup by Metric::key(); nullptr when absent.
  const Metric* find(const std::string& key) const;

  util::Json to_json() const;
  /// Inverse of to_json. Throws std::runtime_error on schema violations
  /// (wrong schema tag, missing fields, bad enum strings).
  static BenchRun from_json(const util::Json& doc);
  /// Reads and parses a file. Throws std::runtime_error / JsonParseError.
  static BenchRun load(const std::string& path);

  void write_json(const std::string& path) const;

 private:
  std::string suite_;
  std::vector<Metric> metrics_;
  std::map<std::string, std::size_t> by_key_;
};

/// Bench-binary front end: parses the harness arguments, owns the run,
/// and writes the JSON on finish(). Typical bench main:
///
///   int main(int argc, char** argv) {
///     bench::Harness h(argc, argv, "table1_main");
///     ...
///     h.add("speedup", s, "x", bench::Direction::kHigherIsBetter,
///           {{"net", label}, {"precision", hw::to_string(p)}});
///     ...
///     return h.finish();
///   }
///
/// Recognized arguments: --json=<path>, --help. Anything else is an error
/// (exit 2) so a typo cannot silently drop the JSON a CI gate expects.
/// finish() stamps the whole-process wall time as `bench_wall_s` (kWall).
class Harness {
 public:
  Harness(int argc, char** argv, std::string suite);

  BenchRun& run() { return run_; }
  void add(std::string name, double value, std::string unit, Direction dir,
           Dims dims = {}, Kind kind = Kind::kModel) {
    run_.add(std::move(name), value, std::move(unit), dir, std::move(dims),
             kind);
  }

  /// Writes the JSON when --json was given; returns the process exit code
  /// (0, or 2 when the file cannot be written).
  int finish();

 private:
  BenchRun run_;
  std::string json_path_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lcmm::bench
