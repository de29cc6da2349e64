// lcmm_compile: the command-line front end of the LCMM framework.
//
//   lcmm_compile --model googlenet --precision 16
//   lcmm_compile --graph mynet.lcmm --design lcmm --format json
//   lcmm_compile --model resnet152 --roofline --trace
//   lcmm_compile --model googlenet --stats-json s.json --compile-trace t.json
//   lcmm_compile --model inception_v4 --check-report check.sarif
//   lcmm_compile --list-rules
#include <fstream>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "check/emit.hpp"
#include "cli/options.hpp"
#include "driver/batch.hpp"
#include "graph/dot.hpp"
#include "hw/roofline.hpp"
#include "io/text_format.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "resil/fault.hpp"
#include "sim/chrome_trace.hpp"
#include "sim/memory_trace.hpp"
#include "sim/report.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace {

using namespace lcmm;

void print_text_report(const sim::DesignReport& r) {
  util::Table t({"field", "value"});
  t.add_row({"network", r.network});
  t.add_row({"precision", hw::to_string(r.precision)});
  t.add_row({"design", r.is_umm ? "UMM" : "LCMM"});
  if (!r.degrade_reason.empty()) {
    t.add_row({"ladder rung", r.rung + " (" + r.degrade_reason + ")"});
  }
  t.add_row({"latency", util::fmt_fixed(r.latency_ms, 3) + " ms"});
  t.add_row({"throughput", util::fmt_fixed(r.tops, 3) + " Tops"});
  t.add_row({"clock", util::fmt_fixed(r.freq_mhz, 0) + " MHz"});
  t.add_row({"DSP / CLB / SRAM", util::fmt_pct(r.dsp_util) + "% / " +
                                     util::fmt_pct(r.clb_util) + "% / " +
                                     util::fmt_pct(r.sram_util) + "%"});
  t.add_row({"BRAM / URAM", util::fmt_pct(r.bram_util) + "% / " +
                                util::fmt_pct(r.uram_util) + "%"});
  if (!r.is_umm) {
    t.add_row({"POL", util::fmt_pct(r.pol) + "%"});
    t.add_row({"tensor buffers", std::to_string(r.num_on_chip_buffers) + " (" +
                                     util::fmt_mebibytes(static_cast<double>(
                                         r.tensor_buffer_bytes)) +
                                     ")"});
    t.add_row({"prefetch stalls", util::fmt_fixed(r.total_stall_ms, 3) + " ms"});
  }
  std::cout << t;
}

void print_rules() {
  util::Table t({"code", "severity", "rule", "paper", "summary"});
  for (check::Code code : check::all_codes()) {
    t.add_row({check::code_id(code), to_string(check::default_severity(code)),
               check::code_name(code), check::code_paper_section(code),
               check::code_summary(code)});
  }
  std::cout << t;
}

// One document for every checked design; the format follows the extension.
void write_check_report(const std::vector<check::CheckedPlan>& checked,
                        const std::string& path) {
  util::Json doc;
  if (path.ends_with(".sarif")) {
    doc = check::to_sarif(checked);
  } else {
    doc = util::Json::array();
    for (const check::CheckedPlan& c : checked) {
      doc.push(to_json(c.report, c.label));
    }
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  out << doc.dump() << "\n";
}

void print_csv_report(const sim::DesignReport& r, bool header) {
  if (header) {
    std::cout << "network,precision,design,latency_ms,tops,freq_mhz,dsp,clb,"
                 "sram,bram,uram,pol,stall_ms,buffers\n";
  }
  std::cout << r.network << ',' << hw::to_string(r.precision) << ','
            << (r.is_umm ? "UMM" : "LCMM") << ','
            << util::fmt_fixed(r.latency_ms, 4) << ','
            << util::fmt_fixed(r.tops, 4) << ','
            << util::fmt_fixed(r.freq_mhz, 0) << ','
            << util::fmt_fixed(r.dsp_util, 3) << ','
            << util::fmt_fixed(r.clb_util, 3) << ','
            << util::fmt_fixed(r.sram_util, 3) << ','
            << util::fmt_fixed(r.bram_util, 3) << ','
            << util::fmt_fixed(r.uram_util, 3) << ','
            << util::fmt_fixed(r.pol, 3) << ','
            << util::fmt_fixed(r.total_stall_ms, 4) << ','
            << r.num_on_chip_buffers << "\n";
}

int run(const cli::Options& opt) {
  if (opt.verbose) util::set_log_level(util::LogLevel::kDebug);

  // Compiler telemetry is collected only when requested: without a session
  // the instrumentation macros cost one pointer load per site.
  const bool collect_stats =
      !opt.stats_json_path.empty() || !opt.compile_trace_path.empty();
  std::unique_ptr<obs::StatsSession> stats_session;
  if (collect_stats) stats_session = std::make_unique<obs::StatsSession>();

  graph::ComputationGraph graph =
      opt.model.empty() ? io::load_graph_file(opt.graph_file)
                        : models::build_by_name(opt.model);

  if (opt.emit_dot) {
    std::cout << graph::to_dot(graph);
    return 0;
  }
  if (opt.emit_graph) {
    std::cout << io::serialize_graph(graph);
    return 0;
  }

  const hw::FpgaDevice device = cli::resolve_device(opt.device);

  // One batch job compiles every requested design: with `--design both`,
  // the LCMM compile hands back the UMM baseline it builds anyway.
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
  driver::BatchOutcome outcome = std::move(driver::compile_many(jobs).front());
  if (!outcome.ok()) {
    std::cerr << "error: job '" << outcome.label << "' failed ("
              << resil::code_id(outcome.error_info.code);
    if (!outcome.error_info.pass.empty()) {
      std::cerr << " in " << outcome.error_info.pass;
    }
    std::cerr << "): " << outcome.error << "\n";
    return 1;
  }

  struct Compiled {
    const char* design;  // the requested design, even after a UMM fallback
    core::AllocationPlan plan;
    sim::SimResult sim;
    sim::DesignReport report;
  };
  std::vector<Compiled> runs;
  if (job.want_umm) {
    runs.push_back({"umm", std::move(outcome.umm_plan),
                    std::move(outcome.umm_sim), std::move(outcome.umm_report)});
  }
  if (job.want_lcmm) {
    runs.push_back({"lcmm", std::move(outcome.lcmm_plan),
                    std::move(outcome.lcmm_sim),
                    std::move(outcome.lcmm_report)});
  }

  if (opt.emit_roofline) {
    hw::PerfModel model(graph, runs.front().plan.design);
    const auto summary = characterize_roofline(model);
    std::cout << "memory-bound conv layers: " << summary.num_memory_bound
              << " / " << summary.points.size() << "\n";
  }

  if (opt.format == cli::OutputFormat::kJson) {
    util::Json out = util::Json::array();
    for (const Compiled& c : runs) {
      out.push(plan_to_json(graph, c.plan, c.sim, c.report));
    }
    std::cout << out.dump() << "\n";
  } else {
    bool first = true;
    for (const Compiled& c : runs) {
      if (opt.format == cli::OutputFormat::kCsv) {
        print_csv_report(c.report, first);
      } else {
        if (!first) std::cout << "\n";
        print_text_report(c.report);
      }
      first = false;
    }
    if (opt.format == cli::OutputFormat::kText && runs.size() == 2) {
      std::cout << "\nspeedup (UMM / LCMM): "
                << util::fmt_fixed(runs[0].sim.total_s / runs[1].sim.total_s, 2)
                << "x\n";
    }
  }

  if (opt.emit_trace) {
    const Compiled& c = runs.back();
    const sim::MemoryTrace trace = build_memory_trace(graph, c.plan, c.sim);
    std::cout << "\n" << trace.ascii_gantt();
  }
  if (!opt.chrome_trace_path.empty()) {
    write_chrome_trace(graph, runs.back().sim, opt.chrome_trace_path);
    std::cerr << "wrote " << opt.chrome_trace_path << "\n";
  }
  if (!opt.stats_json_path.empty()) {
    obs::write_stats_json(stats_session->stats(), opt.stats_json_path);
    std::cerr << "wrote " << opt.stats_json_path << "\n";
  }
  if (!opt.compile_trace_path.empty()) {
    obs::write_compile_trace(stats_session->stats(), opt.compile_trace_path);
    std::cerr << "wrote " << opt.compile_trace_path << "\n";
  }
  if (opt.check) {
    const check::CheckOptions check_options =
        check::CheckOptions::from(opt.lcmm, opt.check_strict);
    std::vector<check::CheckedPlan> checked;
    bool failed = false;
    for (const Compiled& c : runs) {
      check::CheckedPlan& run = checked.emplace_back();
      run.label = {graph.name(), c.design, hw::to_string(opt.precision)};
      run.report = check::run_checks(graph, c.plan, check_options);
      std::cerr << to_text(run.report, run.label);
      failed |= run.report.fails(opt.check_strict);
    }
    if (!opt.check_report_path.empty()) {
      write_check_report(checked, opt.check_report_path);
      std::cerr << "wrote " << opt.check_report_path << "\n";
    }
    if (failed) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    const cli::Options opt = cli::parse_cli(args);
    if (opt.show_help) {
      std::cout << cli::usage();
      return 0;
    }
    if (opt.list_fault_sites) {
      for (const char* site : resil::fault::sites()) {
        std::cout << site << "\n";
      }
      return 0;
    }
    if (opt.list_rules) {
      print_rules();
      return 0;
    }
    return run(opt);
  } catch (const cli::CliError& e) {
    std::cerr << "error: " << e.what() << "\n\n" << cli::usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
