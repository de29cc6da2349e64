#include "oracle/scan.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace lcmm::oracle {

namespace {

// The colors the library's stopping scan asks for one entity, read off this
// scan's own fit results: none for a 0-byte entity; otherwise from the
// newest color back, stopping at the first larger size after a fit.
std::int64_t colors_asked(const std::vector<std::int64_t>& color_size,
                          const std::vector<bool>& compatible,
                          std::int64_t bytes) {
  if (bytes == 0) return 0;
  std::int64_t asked = 0;
  std::int64_t fit_size = -1;
  for (std::size_t c = color_size.size(); c-- > 0;) {
    if (fit_size >= 0 && color_size[c] > fit_size) break;
    ++asked;
    if (compatible[c]) fit_size = color_size[c];
  }
  return asked;
}

}  // namespace

ScanColoring scan_color_min_total_size(const core::InterferenceGraph& graph) {
  const std::size_t n = graph.size();
  ScanColoring out;
  core::ColoringResult& result = out.result;
  result.color_of.assign(n, -1);
  if (n == 0) return out;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return graph.entities()[a].bytes > graph.entities()[b].bytes;
  });

  std::vector<std::int64_t>& color_size = out.color_size;
  std::vector<std::vector<std::size_t>> members;
  std::vector<bool> compatible;
  for (std::size_t e : order) {
    const std::int64_t bytes = graph.entities()[e].bytes;
    int best_color = -1;
    std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
    std::int64_t best_slack = std::numeric_limits<std::int64_t>::max();
    compatible.assign(color_size.size(), false);
    for (std::size_t c = 0; c < color_size.size(); ++c) {
      compatible[c] = std::none_of(
          members[c].begin(), members[c].end(),
          [&](std::size_t other) { return graph.interferes(e, other); });
      if (!compatible[c]) continue;
      const std::int64_t growth = std::max<std::int64_t>(0, bytes - color_size[c]);
      const std::int64_t slack = std::max<std::int64_t>(0, color_size[c] - bytes);
      if (growth < best_cost || (growth == best_cost && slack < best_slack)) {
        best_cost = growth;
        best_slack = slack;
        best_color = static_cast<int>(c);
      }
    }
    out.candidates_tried += colors_asked(color_size, compatible, bytes);
    if (best_color < 0 || best_cost >= bytes) {
      best_color = static_cast<int>(color_size.size());
      color_size.push_back(0);
      members.emplace_back();
    }
    result.color_of[e] = best_color;
    members[static_cast<std::size_t>(best_color)].push_back(e);
    auto& cs = color_size[static_cast<std::size_t>(best_color)];
    cs = std::max(cs, bytes);
  }
  result.num_colors = static_cast<int>(color_size.size());
  result.total_bytes =
      std::accumulate(color_size.begin(), color_size.end(), std::int64_t{0});
  return out;
}

namespace {

struct PrefetchRequest {
  std::int64_t target = 0;
  std::int64_t start = 0;
  double remaining_s = 0.0;
};

bool bit(std::uint8_t mask, core::TensorSource s) {
  return (mask >> static_cast<int>(s)) & 1u;
}

}  // namespace

sim::SimResult scan_simulate(const hw::PerfModel& model,
                             const core::AllocationPlan& plan) {
  const graph::ComputationGraph& graph = model.graph();
  const std::int64_t steps = static_cast<std::int64_t>(graph.num_layers());

  std::vector<PrefetchRequest> requests;
  for (const graph::Layer& layer : graph.layers()) {
    if (!plan.state.is_on({layer.id, core::TensorSource::kWeight})) continue;
    if (std::find(plan.resident_weights.begin(), plan.resident_weights.end(),
                  layer.id) != plan.resident_weights.end()) {
      continue;
    }
    PrefetchRequest r;
    r.target = layer.id;
    double load = 0.0;
    int start_step = core::kBeforeExecution;
    if (const core::PrefetchEdge* edge = plan.prefetch.edge_for(layer.id)) {
      start_step = edge->start_step;
      load = edge->load_seconds;
    } else {
      load = model.ddr().transfer_seconds(
          static_cast<double>(graph.layer_weight_elems(layer.id)) *
              hw::bytes_per_elem(plan.design.precision),
          4096.0);
    }
    r.start = start_step == core::kBeforeExecution ? 0 : start_step;
    r.remaining_s = load;
    requests.push_back(r);
  }
  std::sort(requests.begin(), requests.end(),
            [](const PrefetchRequest& a, const PrefetchRequest& b) {
              return a.target < b.target;
            });

  sim::SimResult out;
  double t = 0.0;
  for (std::int64_t step = 0; step < steps; ++step) {
    const auto id = static_cast<graph::LayerId>(step);
    const hw::LayerTiming& timing = model.timing(id);
    const std::uint8_t mask = plan.state.layer_mask(id);

    sim::LayerExecution exec;
    exec.layer = id;
    exec.compute_s = timing.compute_s;
    exec.if_s = (bit(mask, core::TensorSource::kInput) ? 0.0 : timing.if_s) +
                (bit(mask, core::TensorSource::kResidual) ? 0.0 : timing.res_s);
    exec.wt_s = bit(mask, core::TensorSource::kWeight) ? 0.0 : timing.wt_s;
    exec.of_s = bit(mask, core::TensorSource::kOutput) ? 0.0 : timing.of_s;
    const double base =
        std::max({exec.compute_s, exec.if_s, exec.wt_s, exec.of_s});

    for (PrefetchRequest& r : requests) {
      if (r.target == step && r.remaining_s > 0.0) {
        exec.stall_s += r.remaining_s;
        r.remaining_s = 0.0;
      }
    }

    exec.start_s = t + exec.stall_s;
    exec.end_s = exec.start_s + base;
    out.total_stall_s += exec.stall_s;

    double free_wt = std::max(0.0, base - exec.wt_s);
    for (PrefetchRequest& r : requests) {
      if (free_wt <= 0.0) break;
      if (r.remaining_s <= 0.0) continue;
      if (r.target <= step) continue;
      if (r.start > step) continue;
      const double granted = std::min(free_wt, r.remaining_s);
      r.remaining_s -= granted;
      free_wt -= granted;
      out.hidden_prefetch_s += granted;
    }

    t = exec.end_s;
    out.layers.push_back(exec);
  }
  out.total_s = t;
  return out;
}

}  // namespace lcmm::oracle
