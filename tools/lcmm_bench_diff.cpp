// lcmm_bench_diff: the perf-regression gate's comparator. Takes a
// recorded baseline bench run and a fresh one (both lcmm-bench-v1 JSON,
// as written by any bench binary's --json=<path>), applies a per-metric
// tolerance spec, and prints a delta table:
//
//   lcmm_bench_diff bench/baselines/table1_main.json fresh/table1_main.json
//   lcmm_bench_diff base.json cur.json --tolerance bench/baselines/tolerances.spec
//   lcmm_bench_diff base.json cur.json --format markdown --output delta.md
//
// Exit codes: 0 gate passed (improvements and within-tolerance deltas
// only), 1 gate failed (a regression, or a baseline metric that
// disappeared), 2 usage or I/O error. Wall-clock metrics are reported
// but never gate (shared CI runners make wall time untrustworthy; see
// docs/benchmarking.md).
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench.hpp"
#include "bench/diff.hpp"

namespace {

using namespace lcmm;

enum class Format { kText, kMarkdown };

struct CliOptions {
  std::string baseline_path;
  std::string current_path;
  std::string tolerance_path;
  std::string output_path;
  Format format = Format::kText;
  bool show_help = false;
};

std::string usage() {
  return "lcmm_bench_diff — compare two lcmm-bench-v1 runs for the CI gate\n\n"
         "usage: lcmm_bench_diff BASELINE.json CURRENT.json [options]\n\n"
         "  --tolerance FILE    per-metric tolerance spec (glob patterns on\n"
         "                      \"suite/metric{dims}\", last match wins);\n"
         "                      default: 2% relative on every metric\n"
         "  --format text|markdown\n"
         "  --output FILE       write the table to FILE instead of stdout\n"
         "  --help\n\n"
         "exit: 0 gate passed, 1 regression/missing metric, 2 usage or I/O\n";
}

bool parse_args(int argc, char** argv, CliOptions& opt, std::string& error) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        error = std::string("missing value for ") + flag;
        return {};
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      opt.show_help = true;
      return true;
    } else if (arg == "--tolerance") {
      opt.tolerance_path = value("--tolerance");
    } else if (arg == "--output") {
      opt.output_path = value("--output");
    } else if (arg == "--format") {
      const std::string v = value("--format");
      if (v == "text") {
        opt.format = Format::kText;
      } else if (v == "markdown") {
        opt.format = Format::kMarkdown;
      } else if (error.empty()) {
        error = "unknown format '" + v + "' (want text|markdown)";
      }
    } else if (!arg.empty() && arg[0] == '-') {
      error = "unknown option '" + arg + "'";
    } else {
      positional.push_back(arg);
    }
    if (!error.empty()) return false;
  }
  if (positional.size() != 2) {
    error = "expected exactly two run files (baseline, current), got " +
            std::to_string(positional.size());
    return false;
  }
  opt.baseline_path = positional[0];
  opt.current_path = positional[1];
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  std::string error;
  if (!parse_args(argc, argv, opt, error)) {
    std::cerr << "error: " << error << "\n\n" << usage();
    return 2;
  }
  if (opt.show_help) {
    std::cout << usage();
    return 0;
  }

  try {
    const bench::BenchRun baseline = bench::BenchRun::load(opt.baseline_path);
    const bench::BenchRun current = bench::BenchRun::load(opt.current_path);
    const bench::ToleranceSpec spec =
        opt.tolerance_path.empty()
            ? bench::ToleranceSpec{}
            : bench::ToleranceSpec::load(opt.tolerance_path);

    const bench::DiffResult result =
        bench::diff_runs(baseline, current, spec);
    const std::string rendered = opt.format == Format::kMarkdown
                                     ? bench::render_markdown(result)
                                     : bench::render_text(result);
    if (opt.output_path.empty()) {
      std::cout << rendered;
    } else {
      std::ofstream out(opt.output_path);
      if (!out) {
        std::cerr << "error: cannot write " << opt.output_path << "\n";
        return 2;
      }
      out << rendered;
      // Keep the verdict visible in the CI log even when the table goes
      // to an artifact file.
      std::cout << "suite " << result.suite << ": "
                << (result.gate_failed ? "GATE FAILED" : "gate passed") << " ("
                << result.regressions << " regressions, " << result.missing
                << " missing, " << result.improvements << " improvements)\n";
    }
    return result.gate_failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
