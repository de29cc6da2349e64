#include "core/prefetch.hpp"

#include <algorithm>

#include "obs/scope.hpp"
#include "resil/checked.hpp"

namespace lcmm::core {

PrefetchResult::PrefetchResult(std::vector<PrefetchEdge> edges)
    : edges_(std::move(edges)) {
  std::sort(edges_.begin(), edges_.end(),
            [](const PrefetchEdge& a, const PrefetchEdge& b) {
              return a.target < b.target;
            });
}

const PrefetchEdge* PrefetchResult::edge_for(graph::LayerId layer) const {
  const auto it = std::lower_bound(
      edges_.begin(), edges_.end(), layer,
      [](const PrefetchEdge& e, graph::LayerId id) { return e.target < id; });
  return (it != edges_.end() && it->target == layer) ? &*it : nullptr;
}

int PrefetchResult::num_fully_hidden() const {
  int n = 0;
  for (const PrefetchEdge& e : edges_) n += e.fully_hidden() ? 1 : 0;
  return n;
}

PrefetchResult build_prefetch_schedule(const hw::PerfModel& model,
                                       const LivenessOptions& options) {
  LCMM_SPAN("prefetch");
  std::int64_t backtrace_steps = 0;
  const graph::ComputationGraph& graph = model.graph();
  const int bpe = hw::bytes_per_elem(model.design().precision);

  std::vector<PrefetchEdge> edges;
  for (const graph::Layer& layer : graph.layers()) {
    if (!layer.is_conv()) continue;
    const hw::LayerTiming& t = model.timing(layer.id);
    if (!options.include_compute_bound && !t.memory_bound()) continue;
    const std::int64_t bytes = resil::checked_mul(
        graph.layer_weight_elems(layer.id), bpe, "weight bytes");
    if (bytes <= 0) continue;

    PrefetchEdge edge;
    edge.target = layer.id;
    edge.load_seconds = model.ddr().transfer_seconds(
        static_cast<double>(bytes), kSequentialBurstBytes);

    // Backtrace: accumulate the UMM execution time of the preceding steps,
    // walking backwards until it covers the load time.
    double elapsed = 0.0;
    int start = kBeforeExecution;
    for (int s = layer.id - 1; s >= 0; --s) {
      ++backtrace_steps;
      elapsed += model.timing(s).umm_latency();
      if (elapsed >= edge.load_seconds) {
        start = s;
        break;
      }
    }
    edge.start_step = start;
    edge.window_seconds = elapsed;
    edges.push_back(edge);
  }
  PrefetchResult result(std::move(edges));
  LCMM_COUNT("edges", static_cast<std::int64_t>(result.edges().size()));
  LCMM_COUNT("fully_hidden", result.num_fully_hidden());
  LCMM_COUNT("backtrace_steps", backtrace_steps);
  return result;
}

std::vector<TensorEntity> build_weight_entities(const hw::PerfModel& model,
                                                const PrefetchResult& prefetch) {
  const graph::ComputationGraph& graph = model.graph();
  const int bpe = hw::bytes_per_elem(model.design().precision);
  std::vector<TensorEntity> entities;
  for (const PrefetchEdge& edge : prefetch.edges()) {
    entities.push_back({{edge.target, TensorSource::kWeight},
                        resil::checked_mul(graph.layer_weight_elems(edge.target),
                                           bpe, "weight bytes"),
                        edge.start_step, edge.target});
  }
  return entities;
}

}  // namespace lcmm::core
