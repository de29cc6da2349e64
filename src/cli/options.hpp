// Command-line option parsing for the lcmm_compile tool, kept in the
// library so it is unit-testable.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "core/lcmm.hpp"

namespace lcmm::cli {

class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class OutputFormat { kText, kJson, kCsv };
enum class DesignChoice { kUmm, kLcmm, kBoth };

struct Options {
  /// Exactly one of model / graph_file is set.
  std::string model;
  std::string graph_file;

  hw::Precision precision = hw::Precision::kInt16;
  std::string device = "vu9p";
  DesignChoice design = DesignChoice::kBoth;
  OutputFormat format = OutputFormat::kText;

  core::LcmmOptions lcmm;

  bool emit_dot = false;
  bool emit_graph = false;
  bool emit_trace = false;
  bool emit_roofline = false;
  bool show_help = false;
  bool verbose = false;
  /// When non-empty, write a Chrome trace-event JSON of the last compiled
  /// design's timeline to this path.
  std::string chrome_trace_path;
  /// When non-empty, write the compiler's own stats tree (pass wall times,
  /// counters, allocation decisions) as JSON to this path.
  std::string stats_json_path;
  /// When non-empty, write the compiler pipeline's spans as a Chrome
  /// trace-event JSON to this path.
  std::string compile_trace_path;
  /// Run the lcmm::check diagnostics engine on every compiled plan and
  /// exit non-zero on any error-severity diagnostic.
  bool check = false;
  /// --check=strict: warnings gate the exit code too.
  bool check_strict = false;
  /// --check-report PATH (implies --check): write every compiled design's
  /// check report as one document — SARIF 2.1.0 when PATH ends in
  /// ".sarif", else a JSON array of "lcmm-check-v1" objects.
  std::string check_report_path;
  /// --list-rules: print the check diagnostic rule table and exit.
  bool list_rules = false;
  /// --list-fault-sites: print the resil fault-injection sites and exit.
  bool list_fault_sites = false;
};

/// Parses argv (argv[0] is skipped). Throws CliError on bad input.
Options parse_cli(const std::vector<std::string>& args);

/// The --help text.
std::string usage();

/// Resolves Options::device to a device model. Throws CliError.
hw::FpgaDevice resolve_device(const std::string& name);

}  // namespace lcmm::cli
