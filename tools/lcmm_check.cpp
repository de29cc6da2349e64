// lcmm_check: standalone front end of the lcmm::check plan verifier.
//
// Compiles a network (UMM and/or LCMM), runs every registered analysis
// pass over the resulting plans, and reports typed diagnostics:
//
//   lcmm_check --model googlenet
//   lcmm_check --model resnet152 --design lcmm --precision 8 --strict
//   lcmm_check --model inception_v4 --format sarif --output check.sarif
//   lcmm_check --list-rules
//
// Exit codes: 0 clean, 1 diagnostics gate failed, 2 usage error.
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "check/emit.hpp"
#include "cli/options.hpp"
#include "driver/batch.hpp"
#include "io/text_format.hpp"
#include "models/models.hpp"
#include "par/jobs.hpp"
#include "resil/error.hpp"
#include "util/table.hpp"

namespace {

using namespace lcmm;

enum class CheckFormat { kText, kJson, kSarif };

struct CheckCliOptions {
  std::string model;
  std::string graph_file;
  hw::Precision precision = hw::Precision::kInt16;
  std::string device = "vu9p";
  cli::DesignChoice design = cli::DesignChoice::kBoth;
  CheckFormat format = CheckFormat::kText;
  std::string output_path;
  bool strict = false;
  bool list_rules = false;
  bool show_help = false;
  /// Worker threads (0 = auto: LCMM_JOBS or hardware concurrency).
  int jobs = 0;
  core::LcmmOptions lcmm;
};

std::string usage() {
  return "lcmm_check — static verification of LCMM allocation plans\n\n"
         "usage: lcmm_check (--model NAME | --graph FILE.lcmm) [options]\n\n"
         "  --design umm|lcmm|both   which designs to compile and check\n"
         "  --precision 8|16|32      data precision (default 16)\n"
         "  --device vu9p|zu9eg|u250 FPGA device (default vu9p)\n"
         "  --allocator dnnk|greedy|exact\n"
         "  --capacity-fraction F    fraction of free SRAM handed to DNNK\n"
         "  --strict                 warnings fail the check too, and compilation\n"
         "                           fails hard instead of degrading (resil)\n"
         "  --jobs N                 worker threads (default: LCMM_JOBS or the\n"
         "                           hardware concurrency); reports are\n"
         "                           identical for every N\n"
         "  --format text|json|sarif report format (default text)\n"
         "  --output PATH            write the report to PATH (default stdout)\n"
         "  --list-rules             print the diagnostic rule table and exit\n"
         "\nExit codes: 0 clean, 1 diagnostics reported or the compile\n"
         "failed, 2 usage error.\n";
}

bool consume_value(const std::vector<std::string>& args, std::size_t& i,
                   const std::string& flag, std::string& out) {
  if (args[i] == flag) {
    if (i + 1 >= args.size()) throw cli::CliError(flag + " needs a value");
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

CheckCliOptions parse(const std::vector<std::string>& args) {
  CheckCliOptions opt;
  std::string value;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      opt.show_help = true;
    } else if (arg == "--strict") {
      // Strict gates the diagnostics AND disables the resil degradation
      // ladder, matching lcmm_compile --strict.
      opt.strict = true;
      opt.lcmm.strict = true;
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (consume_value(args, i, "--model", value)) {
      opt.model = value;
    } else if (consume_value(args, i, "--graph", value)) {
      opt.graph_file = value;
    } else if (consume_value(args, i, "--device", value)) {
      cli::resolve_device(value);  // validate eagerly
      opt.device = value;
    } else if (consume_value(args, i, "--precision", value)) {
      if (value == "8") {
        opt.precision = hw::Precision::kInt8;
      } else if (value == "16") {
        opt.precision = hw::Precision::kInt16;
      } else if (value == "32") {
        opt.precision = hw::Precision::kFp32;
      } else {
        throw cli::CliError("--precision must be 8, 16 or 32");
      }
    } else if (consume_value(args, i, "--design", value)) {
      if (value == "umm") {
        opt.design = cli::DesignChoice::kUmm;
      } else if (value == "lcmm") {
        opt.design = cli::DesignChoice::kLcmm;
      } else if (value == "both") {
        opt.design = cli::DesignChoice::kBoth;
      } else {
        throw cli::CliError("--design must be umm, lcmm or both");
      }
    } else if (consume_value(args, i, "--format", value)) {
      if (value == "text") {
        opt.format = CheckFormat::kText;
      } else if (value == "json") {
        opt.format = CheckFormat::kJson;
      } else if (value == "sarif") {
        opt.format = CheckFormat::kSarif;
      } else {
        throw cli::CliError("--format must be text, json or sarif");
      }
    } else if (consume_value(args, i, "--output", value)) {
      opt.output_path = value;
    } else if (consume_value(args, i, "--allocator", value)) {
      if (value == "dnnk") {
        opt.lcmm.allocator = core::AllocatorKind::kDnnk;
      } else if (value == "greedy") {
        opt.lcmm.allocator = core::AllocatorKind::kGreedy;
      } else if (value == "exact") {
        opt.lcmm.allocator = core::AllocatorKind::kExact;
      } else {
        throw cli::CliError("--allocator must be dnnk, greedy or exact");
      }
    } else if (consume_value(args, i, "--jobs", value)) {
      try {
        std::size_t pos = 0;
        opt.jobs = std::stoi(value, &pos);
        if (pos != value.size() || opt.jobs < 1) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        throw cli::CliError("--jobs: expected an integer >= 1, got '" + value +
                            "'");
      }
    } else if (consume_value(args, i, "--capacity-fraction", value)) {
      try {
        opt.lcmm.sram_capacity_fraction = std::stod(value);
      } catch (const std::exception&) {
        throw cli::CliError("--capacity-fraction: bad number '" + value + "'");
      }
    } else {
      throw cli::CliError("unknown option '" + arg + "' (see --help)");
    }
  }
  if (opt.show_help || opt.list_rules) return opt;
  if (opt.model.empty() == opt.graph_file.empty()) {
    throw cli::CliError("exactly one of --model or --graph is required");
  }
  return opt;
}

int list_rules() {
  util::Table t({"code", "severity", "rule", "paper", "summary"});
  for (check::Code code : check::all_codes()) {
    t.add_row({check::code_id(code),
               to_string(check::default_severity(code)),
               check::code_name(code), check::code_paper_section(code),
               check::code_summary(code)});
  }
  std::cout << t;
  return 0;
}

int run(const CheckCliOptions& opt) {
  par::set_default_jobs(opt.jobs > 0
                            ? opt.jobs
                            : par::jobs_from_env_or(par::hardware_jobs()));

  graph::ComputationGraph graph =
      opt.model.empty() ? io::load_graph_file(opt.graph_file)
                        : models::build_by_name(opt.model);
  const hw::FpgaDevice device = cli::resolve_device(opt.device);
  const check::CheckOptions check_options =
      check::CheckOptions::from(opt.lcmm, opt.strict);

  // Compile the requested designs as one batch job: with `--design both`,
  // the LCMM compile hands back the UMM baseline it builds anyway. The
  // LCMM outcome comes back post-refinement, which is the plan the
  // simulator would actually consume — the same plan lcmm_compile ships.
  std::vector<driver::BatchJob> jobs;
  jobs.push_back({
      .graph = graph,
      .device = device,
      .precision = opt.precision,
      .options = opt.lcmm,
      .want_umm = opt.design != cli::DesignChoice::kLcmm,
      .want_lcmm = opt.design != cli::DesignChoice::kUmm,
      .label = graph.name(),
  });
  const driver::BatchJob& job = jobs.front();
  const driver::BatchOutcome outcome =
      std::move(driver::compile_many(jobs).front());
  if (!outcome.ok()) {
    std::cerr << "error: job '" << outcome.label << "' failed ("
              << resil::code_id(outcome.error_info.code) << "): "
              << outcome.error << "\n";
    return 1;
  }
  std::vector<check::CheckedPlan> checked;
  const auto check_plan = [&](const char* design, const core::AllocationPlan& plan) {
    check::CheckedPlan run;
    run.label = {graph.name(), design, hw::to_string(opt.precision)};
    run.report = check::run_checks(graph, plan, check_options);
    checked.push_back(std::move(run));
  };
  if (job.want_umm) check_plan("umm", outcome.umm_plan);
  if (job.want_lcmm) check_plan("lcmm", outcome.lcmm_plan);

  std::ostream* out = &std::cout;
  std::ofstream file;
  if (!opt.output_path.empty()) {
    file.open(opt.output_path);
    if (!file) {
      std::cerr << "error: cannot write " << opt.output_path << "\n";
      return 1;
    }
    out = &file;
  }

  switch (opt.format) {
    case CheckFormat::kText:
      for (const check::CheckedPlan& run : checked) {
        *out << to_text(run.report, run.label);
      }
      break;
    case CheckFormat::kJson: {
      util::Json doc = util::Json::array();
      for (const check::CheckedPlan& run : checked) {
        doc.push(to_json(run.report, run.label));
      }
      *out << doc.dump() << "\n";
      break;
    }
    case CheckFormat::kSarif:
      *out << to_sarif(checked).dump() << "\n";
      break;
  }

  bool failed = false;
  for (const check::CheckedPlan& run : checked) {
    failed |= run.report.fails(opt.strict);
  }
  if (failed && opt.format != CheckFormat::kText) {
    // Make the gate visible even when the report went to a file.
    std::cerr << "lcmm_check: diagnostics reported (see output)\n";
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    const CheckCliOptions opt = parse(args);
    if (opt.show_help) {
      std::cout << usage();
      return 0;
    }
    if (opt.list_rules) return list_rules();
    return run(opt);
  } catch (const cli::CliError& e) {
    std::cerr << "error: " << e.what() << "\n\n" << usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
