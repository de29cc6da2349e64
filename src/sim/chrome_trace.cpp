#include "sim/chrome_trace.hpp"

#include <fstream>

#include "core/entity.hpp"

namespace lcmm::sim {

namespace {
constexpr int kComputeTrack = 0;
constexpr int kIfTrack = 1;
constexpr int kWtTrack = 2;
constexpr int kOfTrack = 3;
constexpr int kStallTrack = 4;
}  // namespace

void TraceEventWriter::set_track_name(int tid, const std::string& name) {
  util::Json meta = util::Json::object();
  meta["name"] = "thread_name";
  meta["ph"] = "M";
  meta["pid"] = 0;
  meta["tid"] = tid;
  util::Json args = util::Json::object();
  args["name"] = name;
  meta["args"] = std::move(args);
  events_.push(std::move(meta));
}

void TraceEventWriter::add_complete_event(const std::string& name, int tid,
                                          double start_s, double dur_s) {
  if (dur_s <= 0.0) return;
  util::Json e = util::Json::object();
  e["name"] = name;
  e["ph"] = "X";
  e["pid"] = 0;
  e["tid"] = tid;
  e["ts"] = start_s * 1e6;  // microseconds
  e["dur"] = dur_s * 1e6;
  events_.push(std::move(e));
}

util::Json TraceEventWriter::finish() && {
  util::Json root = util::Json::object();
  root["traceEvents"] = std::move(events_);
  root["displayTimeUnit"] = "ms";
  return root;
}

std::string to_chrome_trace(const graph::ComputationGraph& graph,
                            const SimResult& sim) {
  TraceEventWriter writer;
  const std::pair<int, const char*> tracks[] = {
      {kComputeTrack, "PE array"},   {kIfTrack, "DRAM: input features"},
      {kWtTrack, "DRAM: weights"},   {kOfTrack, "DRAM: output features"},
      {kStallTrack, "prefetch stalls"}};
  for (const auto& [tid, name] : tracks) writer.set_track_name(tid, name);
  for (const LayerExecution& e : sim.layers) {
    const std::string& name = graph.layer(e.layer).name;
    writer.add_complete_event(name, kComputeTrack, e.start_s, e.compute_s);
    writer.add_complete_event(name + ".if", kIfTrack, e.start_s, e.if_s);
    writer.add_complete_event(
        core::tensor_name(graph, {e.layer, core::TensorSource::kWeight}),
        kWtTrack, e.start_s, e.wt_s);
    writer.add_complete_event(name + ".of", kOfTrack, e.start_s, e.of_s);
    writer.add_complete_event(name + ".stall", kStallTrack,
                              e.start_s - e.stall_s, e.stall_s);
  }
  return std::move(writer).finish().dump(-1);
}

void write_chrome_trace(const graph::ComputationGraph& graph,
                        const SimResult& sim, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << to_chrome_trace(graph, sim);
}

}  // namespace lcmm::sim
