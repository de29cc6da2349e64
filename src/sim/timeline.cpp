#include "sim/timeline.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/latency_tables.hpp"
#include "obs/scope.hpp"

namespace lcmm::sim {

namespace {

struct PrefetchRequest {
  std::int64_t target_abs = 0;  // absolute step across the image stream
  std::int64_t start_abs = 0;   // earliest absolute step the load may begin
  double remaining_s = 0.0;
};

bool bit(std::uint8_t mask, core::TensorSource s) {
  return (mask >> static_cast<int>(s)) & 1u;
}

struct TimelineOutput {
  std::vector<LayerExecution> layers;  // all images, execution order
  double total_s = 0.0;
  double total_stall_s = 0.0;
  double hidden_prefetch_s = 0.0;
  std::vector<double> image_end_s;  // per image
};

/// Core timeline over `images` back-to-back inferences. Weight prefetches
/// are granted the leftover weight-stream bandwidth of the layers inside
/// their window, earliest target first; for image k > 0 a window that the
/// paper's backtrace could not fit (start == kBeforeExecution) extends
/// into image k-1. A cursor over the target-sorted requests charges the
/// stalls, and the requests whose window is open wait in target order in
/// an active list, so each step costs only the requests it touches.
TimelineOutput run_timeline(const core::AllocationPlan& plan,
                            const hw::PerfModel& model, int images) {
  const graph::ComputationGraph& graph = model.graph();
  const std::int64_t steps = static_cast<std::int64_t>(graph.num_layers());
  // Resident weights are persistent: loaded once before the stream.
  const std::vector<bool> resident =
      plan.resident_weight_mask(graph.num_layers());

  std::vector<PrefetchRequest> requests;
  for (int img = 0; img < images; ++img) {
    const std::int64_t base = static_cast<std::int64_t>(img) * steps;
    for (const graph::Layer& layer : graph.layers()) {
      if (!plan.state.is_on({layer.id, core::TensorSource::kWeight})) continue;
      if (resident[static_cast<std::size_t>(layer.id)]) continue;
      PrefetchRequest r;
      r.target_abs = base + layer.id;
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
      if (start_step == core::kBeforeExecution) {
        // The window does not fit inside one image: extend into the
        // previous one (or clamp to the stream start for the first image).
        r.start_abs = std::max<std::int64_t>(0, base - steps);
      } else {
        r.start_abs = base + start_step;
      }
      r.remaining_s = load;
      requests.push_back(r);
    }
  }
  // Targets are distinct, so a request's index is its rank in target order.
  std::sort(requests.begin(), requests.end(),
            [](const PrefetchRequest& a, const PrefetchRequest& b) {
              return a.target_abs < b.target_abs;
            });
  std::vector<std::size_t> by_start(requests.size());
  std::iota(by_start.begin(), by_start.end(), std::size_t{0});
  std::stable_sort(by_start.begin(), by_start.end(),
                   [&](std::size_t a, std::size_t b) {
                     return requests[a].start_abs < requests[b].start_abs;
                   });
  std::size_t next_start = 0;   // into by_start
  std::size_t next_target = 0;  // into requests
  // In-window requests with load left, by index (= target order).
  std::vector<std::size_t> active;
  active.reserve(requests.size());

  TimelineOutput out;
  out.image_end_s.resize(static_cast<std::size_t>(images), 0.0);
  // Exact size: batch outcomes keep their simulations alive, so growth
  // slack would stay resident with them.
  out.layers.reserve(static_cast<std::size_t>(steps * images));
  double t = 0.0;
  for (std::int64_t abs = 0; abs < steps * images; ++abs) {
    const auto id = static_cast<graph::LayerId>(abs % steps);
    const hw::LayerTiming& timing = model.timing(id);
    const std::uint8_t mask = plan.state.layer_mask(id);

    LayerExecution exec;
    exec.layer = id;
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
    if (next_target < requests.size() &&
        requests[next_target].target_abs == abs) {
      PrefetchRequest& r = requests[next_target++];
      if (r.remaining_s > 0.0) {
        exec.stall_s += r.remaining_s;
        r.remaining_s = 0.0;
      }
    }

    exec.start_s = t + exec.stall_s;
    exec.end_s = exec.start_s + base;
    out.total_stall_s += exec.stall_s;

    // Open the windows that start here; a request already at or past its
    // target, or with nothing to load, is never granted.
    for (; next_start < by_start.size() &&
           requests[by_start[next_start]].start_abs <= abs;
         ++next_start) {
      const std::size_t i = by_start[next_start];
      if (requests[i].target_abs <= abs || requests[i].remaining_s <= 0.0) {
        continue;
      }
      active.insert(std::lower_bound(active.begin(), active.end(), i), i);
    }
    // This step's own request, if active, heads the list and is now spent.
    if (!active.empty() && requests[active.front()].target_abs <= abs) {
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
      out.hidden_prefetch_s += granted;
      finished += r.remaining_s <= 0.0;
    }
    active.erase(active.begin(),
                 active.begin() + static_cast<std::ptrdiff_t>(finished));

    t = exec.end_s;
    if ((abs + 1) % steps == 0) {
      out.image_end_s[static_cast<std::size_t>(abs / steps)] = t;
    }
    out.layers.push_back(exec);
  }
  out.total_s = t;
  return out;
}

}  // namespace

SimResult simulate(const hw::PerfModel& model, const core::AllocationPlan& plan) {
  LCMM_SPAN("simulate");
  const graph::ComputationGraph& graph = model.graph();
  if (plan.state.num_layers() != graph.num_layers()) {
    throw std::invalid_argument("simulate: plan does not match graph");
  }
  LCMM_COUNT("layers", static_cast<std::int64_t>(graph.num_layers()));
  TimelineOutput out = run_timeline(plan, model, 1);
  SimResult result;
  result.total_s = out.total_s;
  result.total_stall_s = out.total_stall_s;
  result.hidden_prefetch_s = out.hidden_prefetch_s;
  result.layers = std::move(out.layers);
  return result;
}

SimResult simulate(const graph::ComputationGraph& graph,
                   const core::AllocationPlan& plan) {
  return simulate(hw::PerfModel(graph, plan.design), plan);
}

StreamResult simulate_stream(const graph::ComputationGraph& graph,
                             const core::AllocationPlan& plan, int images) {
  if (plan.state.num_layers() != graph.num_layers()) {
    throw std::invalid_argument("simulate_stream: plan does not match graph");
  }
  if (images < 1) throw std::invalid_argument("simulate_stream: images < 1");
  const TimelineOutput out =
      run_timeline(plan, hw::PerfModel(graph, plan.design), images);
  StreamResult result;
  result.images = images;
  result.total_s = out.total_s;
  result.total_stall_s = out.total_stall_s;
  result.first_image_s = out.image_end_s.front();
  result.steady_image_s =
      images == 1 ? out.image_end_s.front()
                  : out.image_end_s[static_cast<std::size_t>(images - 1)] -
                        out.image_end_s[static_cast<std::size_t>(images - 2)];
  return result;
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
        LCMM_DECIDE(model.graph().layer(exec.layer).name + ".wt", 0, false,
                    "prefetch-stall-regression");
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
