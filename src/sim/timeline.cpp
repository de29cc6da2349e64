#include "sim/timeline.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/latency_tables.hpp"
#include "core/prefetch.hpp"
#include "obs/scope.hpp"

namespace lcmm::sim {

namespace {

struct PrefetchRequest {
  int target = 0;  // the step whose layer reads the weights
  int start = 0;   // earliest step the load may begin
  double remaining_s = 0.0;
};

bool bit(std::uint8_t mask, core::TensorSource s) {
  return (mask >> static_cast<int>(s)) & 1u;
}

}  // namespace

SimResult simulate(const hw::PerfModel& model, const core::AllocationPlan& plan) {
  LCMM_SPAN("simulate");
  const graph::ComputationGraph& graph = model.graph();
  if (plan.state.num_layers() != graph.num_layers()) {
    throw std::invalid_argument("simulate: plan does not match graph");
  }
  LCMM_COUNT("layers", static_cast<std::int64_t>(graph.num_layers()));
  // Resident weights are persistent: loaded once, before execution.
  const std::vector<bool> resident =
      plan.resident_weight_mask(graph.num_layers());

  // Built in layer order, so a request's index is its rank in target
  // order. A window that the paper's backtrace could not fit
  // (kBeforeExecution) opens at the first step.
  std::vector<PrefetchRequest> requests;
  for (const graph::Layer& layer : graph.layers()) {
    if (!plan.state.is_on({layer.id, core::TensorSource::kWeight})) continue;
    if (resident[static_cast<std::size_t>(layer.id)]) continue;
    PrefetchRequest r;
    r.target = layer.id;
    if (const core::PrefetchEdge* edge = plan.prefetch.edge_for(layer.id)) {
      r.start = edge->start_step == core::kBeforeExecution ? 0 : edge->start_step;
      r.remaining_s = edge->load_seconds;
    } else {
      r.remaining_s = model.ddr().transfer_seconds(
          static_cast<double>(graph.layer_weight_elems(layer.id)) *
              hw::bytes_per_elem(plan.design.precision),
          core::kSequentialBurstBytes);
    }
    requests.push_back(r);
  }
  std::vector<std::size_t> by_start(requests.size());
  std::iota(by_start.begin(), by_start.end(), std::size_t{0});
  std::stable_sort(by_start.begin(), by_start.end(),
                   [&](std::size_t a, std::size_t b) {
                     return requests[a].start < requests[b].start;
                   });
  std::size_t next_start = 0;   // into by_start
  std::size_t next_target = 0;  // into requests
  // In-window requests with load left, by index (= target order).
  std::vector<std::size_t> active;
  active.reserve(requests.size());

  SimResult result;
  // Exact size: batch outcomes keep their simulations alive, so growth
  // slack would stay resident with them.
  result.layers.reserve(graph.num_layers());
  double t = 0.0;
  for (const graph::Layer& layer : graph.layers()) {
    const graph::LayerId step = layer.id;
    const hw::LayerTiming& timing = model.timing(step);
    const std::uint8_t mask = plan.state.layer_mask(step);

    LayerExecution exec;
    exec.layer = step;
    exec.compute_s = timing.compute_s;
    exec.if_s = (bit(mask, core::TensorSource::kInput) ? 0.0 : timing.if_s) +
                (bit(mask, core::TensorSource::kResidual) ? 0.0 : timing.res_s);
    exec.wt_s = bit(mask, core::TensorSource::kWeight) ? 0.0 : timing.wt_s;
    exec.of_s = bit(mask, core::TensorSource::kOutput) ? 0.0 : timing.of_s;
    const double base = hw::eq1_latency(timing.compute_s, timing.if_s,
                                        timing.res_s, timing.wt_s,
                                        timing.of_s, mask);

    // A prefetch targeting this step must have completed; the remainder
    // stalls the layer while the weight stream finishes the load.
    if (next_target < requests.size() && requests[next_target].target == step) {
      PrefetchRequest& r = requests[next_target++];
      if (r.remaining_s > 0.0) {
        exec.stall_s += r.remaining_s;
        r.remaining_s = 0.0;
      }
    }

    exec.start_s = t + exec.stall_s;
    exec.end_s = exec.start_s + base;
    result.total_stall_s += exec.stall_s;

    // Open the windows that start here; a request already at or past its
    // target, or with nothing to load, is never granted.
    for (; next_start < by_start.size() &&
           requests[by_start[next_start]].start <= step;
         ++next_start) {
      const std::size_t i = by_start[next_start];
      if (requests[i].target <= step || requests[i].remaining_s <= 0.0) {
        continue;
      }
      active.insert(std::lower_bound(active.begin(), active.end(), i), i);
    }
    // This step's own request, if active, heads the list and is now spent.
    if (!active.empty() && requests[active.front()].target <= step) {
      active.erase(active.begin());
    }

    // Grant this layer's leftover weight-stream time to in-window
    // prefetches, earliest target first. (Stall time is excluded: the
    // stream spends it finishing this layer's own late load.) Only the
    // last request granted can keep load left, so the finished ones are a
    // prefix of the list.
    double free_wt = std::max(0.0, base - exec.wt_s);
    std::size_t finished = 0;
    for (std::size_t i : active) {
      if (free_wt <= 0.0) break;
      PrefetchRequest& r = requests[i];
      const double granted = std::min(free_wt, r.remaining_s);
      r.remaining_s -= granted;
      free_wt -= granted;
      result.hidden_prefetch_s += granted;
      finished += r.remaining_s <= 0.0;
    }
    active.erase(active.begin(),
                 active.begin() + static_cast<std::ptrdiff_t>(finished));

    t = exec.end_s;
    result.layers.push_back(exec);
  }
  result.total_s = t;
  return result;
}

SimResult simulate(const graph::ComputationGraph& graph,
                   const core::AllocationPlan& plan) {
  return simulate(hw::PerfModel(graph, plan.design), plan);
}

SimResult refine_against_stalls(const hw::PerfModel& model,
                                core::AllocationPlan& plan) {
  LCMM_SPAN("refine_stalls");
  SimResult sim = simulate(model, plan);
  // Runs to the fixed point: a round that changes anything demotes at least
  // one on-chip weight and promotes none, so there are at most
  // (on-chip weights + 1) rounds.
  for (bool changed = true; changed;) {
    LCMM_COUNT("rounds", 1);
    changed = false;
    for (const LayerExecution& exec : sim.layers) {
      if (exec.stall_s <= 0.0) continue;
      const double umm = model.timing(exec.layer).umm_latency();
      if (exec.latency_s() + exec.stall_s > umm &&
          plan.state.is_on({exec.layer, core::TensorSource::kWeight})) {
        plan.state.set({exec.layer, core::TensorSource::kWeight}, false);
        LCMM_COUNT("demoted_weights", 1);
        LCMM_DECIDE(core::tensor_name(model.graph(),
                                      {exec.layer, core::TensorSource::kWeight}),
                    0, false, "prefetch-stall-regression");
        changed = true;
      }
    }
    if (changed) sim = simulate(model, plan);
  }
  plan.est_latency_s = sim.total_s;
  return sim;
}

SimResult refine_against_stalls(const graph::ComputationGraph& graph,
                                core::AllocationPlan& plan) {
  return refine_against_stalls(hw::PerfModel(graph, plan.design), plan);
}

}  // namespace lcmm::sim
