#include "cli/options.hpp"

#include <sstream>

#include "models/models.hpp"

namespace lcmm::cli {

namespace {

bool consume_value(const std::vector<std::string>& args, std::size_t& i,
                   const std::string& flag, std::string& out) {
  if (args[i] == flag) {
    if (i + 1 >= args.size()) throw CliError(flag + " needs a value");
    out = args[++i];
    return true;
  }
  const std::string prefix = flag + "=";
  if (args[i].rfind(prefix, 0) == 0) {
    out = args[i].substr(prefix.size());
    return true;
  }
  return false;
}

double to_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw CliError(flag + ": expected a number, got '" + value + "'");
  }
}

}  // namespace

hw::FpgaDevice resolve_device(const std::string& name) {
  if (name == "vu9p") return hw::FpgaDevice::vu9p();
  if (name == "zu9eg") return hw::FpgaDevice::zu9eg();
  if (name == "u250") return hw::FpgaDevice::u250();
  throw CliError("unknown device '" + name + "' (vu9p, zu9eg, u250)");
}

Options parse_cli(const std::vector<std::string>& args) {
  Options opt;
  std::string value;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      opt.show_help = true;
    } else if (arg == "--verbose" || arg == "-v") {
      opt.verbose = true;
    } else if (consume_value(args, i, "--model", value)) {
      opt.model = value;
    } else if (consume_value(args, i, "--graph", value)) {
      opt.graph_file = value;
    } else if (consume_value(args, i, "--precision", value)) {
      if (value == "8") {
        opt.precision = hw::Precision::kInt8;
      } else if (value == "16") {
        opt.precision = hw::Precision::kInt16;
      } else if (value == "32") {
        opt.precision = hw::Precision::kFp32;
      } else {
        throw CliError("--precision must be 8, 16 or 32");
      }
    } else if (consume_value(args, i, "--device", value)) {
      resolve_device(value);  // validate eagerly
      opt.device = value;
    } else if (consume_value(args, i, "--design", value)) {
      if (value == "umm") {
        opt.design = DesignChoice::kUmm;
      } else if (value == "lcmm") {
        opt.design = DesignChoice::kLcmm;
      } else if (value == "both") {
        opt.design = DesignChoice::kBoth;
      } else {
        throw CliError("--design must be umm, lcmm or both");
      }
    } else if (consume_value(args, i, "--format", value)) {
      if (value == "text") {
        opt.format = OutputFormat::kText;
      } else if (value == "json") {
        opt.format = OutputFormat::kJson;
      } else if (value == "csv") {
        opt.format = OutputFormat::kCsv;
      } else {
        throw CliError("--format must be text, json or csv");
      }
    } else if (consume_value(args, i, "--capacity-fraction", value)) {
      opt.lcmm.sram_capacity_fraction = to_double("--capacity-fraction", value);
    } else if (arg == "--no-feature-reuse") {
      opt.lcmm.feature_reuse = false;
    } else if (arg == "--no-prefetch") {
      opt.lcmm.weight_prefetch = false;
    } else if (arg == "--no-splitting") {
      opt.lcmm.buffer_splitting = false;
    } else if (arg == "--no-promotion") {
      opt.lcmm.residency_promotion = false;
    } else if (arg == "--no-fallback") {
      opt.lcmm.allow_fallback_to_umm = false;
    } else if (arg == "--strict") {
      opt.lcmm.strict = true;
    } else if (arg == "--list-fault-sites") {
      opt.list_fault_sites = true;
    } else if (consume_value(args, i, "--chrome-trace", value)) {
      opt.chrome_trace_path = value;
    } else if (consume_value(args, i, "--stats-json", value)) {
      opt.stats_json_path = value;
    } else if (consume_value(args, i, "--compile-trace", value)) {
      opt.compile_trace_path = value;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg.rfind("--check=", 0) == 0) {
      const std::string mode = arg.substr(std::string("--check=").size());
      if (mode == "strict") {
        opt.check = opt.check_strict = true;
      } else if (mode == "on") {
        opt.check = true;
      } else {
        throw CliError("--check accepts no value, 'on' or 'strict'");
      }
    } else if (consume_value(args, i, "--check-report", value)) {
      opt.check = true;
      opt.check_report_path = value;
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (arg == "--dot") {
      opt.emit_dot = true;
    } else if (arg == "--emit-graph") {
      opt.emit_graph = true;
    } else if (arg == "--trace") {
      opt.emit_trace = true;
    } else if (arg == "--roofline") {
      opt.emit_roofline = true;
    } else {
      throw CliError("unknown option '" + arg + "' (see --help)");
    }
  }
  if (opt.show_help || opt.list_fault_sites || opt.list_rules) return opt;
  if (opt.model.empty() == opt.graph_file.empty()) {
    throw CliError("exactly one of --model or --graph is required");
  }
  return opt;
}

std::string usage() {
  std::ostringstream os;
  os << "lcmm_compile — layer conscious memory management for FPGA DNN "
        "accelerators\n\n"
        "usage: lcmm_compile (--model NAME | --graph FILE.lcmm) [options]\n\n"
        "inputs:\n"
        "  --model NAME          built-in model:";
  for (const std::string& name : models::model_names()) os << " " << name;
  os << "\n  --graph FILE          load a .lcmm graph file (see io/text_format.hpp)\n"
        "\ntarget:\n"
        "  --precision 8|16|32   data precision (default 16)\n"
        "  --device vu9p|zu9eg|u250  FPGA device (default vu9p)\n"
        "\ncompilation:\n"
        "  --design umm|lcmm|both  which designs to compile (default both)\n"
        "  --capacity-fraction F fraction of free SRAM handed to DNNK\n"
        "  --no-feature-reuse --no-prefetch --no-splitting --no-promotion\n"
        "  --no-fallback         keep the LCMM design even if UMM is faster\n"
        "  --strict              fail hard on the first typed compile error\n"
        "                        instead of shipping the UMM floor\n"
        "                        (docs/robustness.md)\n"
        "  --list-fault-sites    print the registered LCMM_FAULT injection\n"
        "                        sites and exit\n"
        "\noutput:\n"
        "  --format text|json|csv  report format (default text)\n"
        "  --trace               print the tensor residency timeline\n"
        "  --chrome-trace PATH   write a chrome://tracing timeline JSON\n"
        "  --stats-json PATH     write compiler pass stats (wall times,\n"
        "                        counters, allocation decisions) as JSON\n"
        "  --compile-trace PATH  write the compiler's own pass spans as a\n"
        "                        chrome://tracing JSON\n"
        "  --check[=strict]      run the static plan checker (lcmm::check) on\n"
        "                        every compiled plan; exit non-zero on errors\n"
        "                        (strict: warnings fail too)\n"
        "  --check-report PATH   imply --check and write one report covering\n"
        "                        every compiled design: SARIF 2.1.0 when PATH\n"
        "                        ends in .sarif, else lcmm-check-v1 JSON\n"
        "  --list-rules          print the checker's diagnostic rule table\n"
        "                        and exit\n"
        "  --roofline            print the per-layer roofline census\n"
        "  --dot                 print the graph in Graphviz DOT\n"
        "  --emit-graph          print the graph in the .lcmm text format\n"
        "  --verbose             debug-level compiler pass logging to stderr\n"
        "                        (LCMM_LOG_LEVEL=debug|info|warn|error|off\n"
        "                        sets the initial threshold)\n";
  return os.str();
}

}  // namespace lcmm::cli
