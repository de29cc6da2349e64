#include "sim/report.hpp"

#include <algorithm>

#include "obs/scope.hpp"

namespace lcmm::sim {

namespace {
constexpr std::int64_t kShellLuts = 120000;
constexpr std::int64_t kBufferControlLuts = 3000;
constexpr std::int64_t kPerUramLuts = 150;
constexpr std::int64_t kPerBramLuts = 30;

std::int64_t luts_per_mac(hw::Precision p) {
  switch (p) {
    case hw::Precision::kInt8: return 40;
    case hw::Precision::kInt16: return 70;
    case hw::Precision::kFp32: return 700;
  }
  return 0;
}
}  // namespace

std::int64_t estimate_luts(const core::AllocationPlan& plan) {
  std::int64_t luts = kShellLuts;
  luts += plan.design.array.macs_per_cycle() * luts_per_mac(plan.design.precision);
  luts += static_cast<std::int64_t>(plan.physical.size()) * kBufferControlLuts;
  luts += static_cast<std::int64_t>(plan.uram_used) * kPerUramLuts;
  luts += static_cast<std::int64_t>(plan.bram_used) * kPerBramLuts;
  return luts;
}

DesignReport make_report(const graph::ComputationGraph& graph,
                         const core::AllocationPlan& plan, const SimResult& sim) {
  LCMM_SPAN("report");
  LCMM_COUNT("reports", 1);
  DesignReport r;
  r.network = graph.name();
  r.precision = plan.design.precision;
  r.is_umm = plan.is_umm;
  r.rung = resil::rung_name(plan.rung);
  r.degrade_reason = plan.degrade_reason;
  r.latency_ms = sim.total_s * 1e3;
  r.tops = sim.total_s > 0
               ? 2.0 * static_cast<double>(graph.total_macs()) / sim.total_s / 1e12
               : 0.0;
  r.freq_mhz = plan.design.freq_mhz;
  r.dsp_util = static_cast<double>(plan.design.array.dsp_cost(plan.design.precision)) /
               plan.design.device.dsp_total;
  r.clb_util = std::min(1.0, static_cast<double>(estimate_luts(plan)) /
                                 static_cast<double>(plan.design.device.logic_luts_total));
  r.sram_util = plan.sram_utilization();
  r.bram_util = plan.bram_utilization();
  r.uram_util = plan.uram_utilization();
  r.pol = plan.pol();
  r.total_stall_ms = sim.total_stall_s * 1e3;
  r.num_on_chip_buffers = static_cast<int>(plan.physical.size());
  r.tensor_buffer_bytes = plan.tensor_buffer_bytes;
  return r;
}

util::Json report_to_json(const DesignReport& report) {
  util::Json j = util::Json::object();
  j["network"] = report.network;
  j["precision"] = hw::to_string(report.precision);
  j["design"] = report.is_umm ? "UMM" : "LCMM";
  j["rung"] = report.rung;
  j["degrade_reason"] = report.degrade_reason;
  j["latency_ms"] = report.latency_ms;
  j["tops"] = report.tops;
  j["freq_mhz"] = report.freq_mhz;
  j["dsp_util"] = report.dsp_util;
  j["clb_util"] = report.clb_util;
  j["sram_util"] = report.sram_util;
  j["bram_util"] = report.bram_util;
  j["uram_util"] = report.uram_util;
  j["pol"] = report.pol;
  j["stall_ms"] = report.total_stall_ms;
  j["tensor_buffers"] = report.num_on_chip_buffers;
  j["tensor_buffer_bytes"] = report.tensor_buffer_bytes;
  return j;
}

util::Json plan_to_json(const graph::ComputationGraph& graph,
                        const core::AllocationPlan& plan, const SimResult& sim,
                        const DesignReport& report) {
  util::Json j = util::Json::object();
  j["report"] = report_to_json(report);

  util::Json design = util::Json::object();
  design["device"] = plan.design.device.name;
  design["array"] = plan.design.array.to_string();
  design["tile"] = plan.design.tile.to_string();
  design["freq_mhz"] = plan.design.freq_mhz;
  j["design"] = std::move(design);

  util::Json buffers = util::Json::array();
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    util::Json buf = util::Json::object();
    buf["id"] = plan.buffers[b].id;
    buf["bytes"] = plan.buffers[b].bytes;
    buf["on_chip"] = static_cast<bool>(plan.buffer_on_chip[b]);
    util::Json members = util::Json::array();
    for (std::size_t e : plan.buffers[b].members) {
      members.push(core::tensor_name(graph, plan.entities[e].key));
    }
    buf["tensors"] = std::move(members);
    buffers.push(std::move(buf));
  }
  j["virtual_buffers"] = std::move(buffers);

  util::Json residents = util::Json::array();
  for (graph::LayerId id : plan.resident_weights) {
    residents.push(graph.layer(id).name);
  }
  j["resident_weights"] = std::move(residents);

  util::Json layers = util::Json::array();
  for (const LayerExecution& e : sim.layers) {
    util::Json layer = util::Json::object();
    layer["name"] = graph.layer(e.layer).name;
    layer["start_us"] = e.start_s * 1e6;
    layer["latency_us"] = e.latency_s() * 1e6;
    layer["stall_us"] = e.stall_s * 1e6;
    layer["compute_us"] = e.compute_s * 1e6;
    layer["if_us"] = e.if_s * 1e6;
    layer["wt_us"] = e.wt_s * 1e6;
    layer["of_us"] = e.of_s * 1e6;
    layers.push(std::move(layer));
  }
  j["layers"] = std::move(layers);
  return j;
}

}  // namespace lcmm::sim
