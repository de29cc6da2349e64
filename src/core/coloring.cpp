#include "core/coloring.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>

#include "obs/scope.hpp"

namespace lcmm::core {

namespace {

std::int64_t total_size(const InterferenceGraph& graph,
                        const std::vector<int>& color_of, int num_colors) {
  std::vector<std::int64_t> color_max(static_cast<std::size_t>(num_colors), 0);
  for (std::size_t i = 0; i < color_of.size(); ++i) {
    auto& m = color_max[static_cast<std::size_t>(color_of[i])];
    m = std::max(m, graph.entities()[i].bytes);
  }
  return std::accumulate(color_max.begin(), color_max.end(), std::int64_t{0});
}

}  // namespace

ColoringResult color_min_total_size(const InterferenceGraph& graph) {
  LCMM_SPAN("coloring");
  const std::size_t n = graph.size();
  ColoringResult result;
  result.color_of.assign(n, -1);
  if (n == 0) return result;
  std::int64_t candidates_tried = 0;

  // Largest entities first: they define buffer sizes, smaller ones pack in.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return graph.entities()[a].bytes > graph.entities()[b].bytes;
  });

  // A color's members never interfere, so their lifespans are disjoint and,
  // sorted by def step, also sorted by last use.
  struct Member {
    int def_step = 0;
    int last_use_step = 0;
    std::size_t entity = 0;
  };
  std::vector<std::int64_t> color_size;      // current max per color
  std::vector<std::vector<Member>> members;  // per color, by def step
  const auto defined_after = [](auto& color, int step) {
    return std::upper_bound(
        color.begin(), color.end(), step,
        [](int s, const Member& m) { return s < m.def_step; });
  };

  // Without a false edge, `e` can only overlap the last member defined at
  // or before its last use; with one, every member is asked.
  const auto fits = [&](const std::vector<Member>& color, std::size_t e) {
    const InterferenceGraph::Lifespan& span = graph.lifespan(e);
    if (span.has_false_edge) {
      return std::none_of(color.begin(), color.end(), [&](const Member& m) {
        return graph.interferes(e, m.entity);
      });
    }
    const auto after = defined_after(color, span.last_use_step);
    return after == color.begin() ||
           std::prev(after)->last_use_step < span.def_step;
  };

  for (std::size_t e : order) {
    const std::int64_t bytes = graph.entities()[e].bytes;
    int best_color = -1;
    std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
    std::int64_t best_slack = std::numeric_limits<std::int64_t>::max();
    for (std::size_t c = 0; c < color_size.size(); ++c) {
      ++candidates_tried;
      if (!fits(members[c], e)) continue;
      const std::int64_t growth = std::max<std::int64_t>(0, bytes - color_size[c]);
      const std::int64_t slack = std::max<std::int64_t>(0, color_size[c] - bytes);
      // Prefer zero growth with the tightest fit; otherwise minimal growth.
      if (growth < best_cost || (growth == best_cost && slack < best_slack)) {
        best_cost = growth;
        best_slack = slack;
        best_color = static_cast<int>(c);
      }
    }
    if (best_color < 0 || best_cost >= bytes) {
      // A fresh color is never worse than growing an existing one by the
      // full entity size.
      best_color = static_cast<int>(color_size.size());
      color_size.push_back(0);
      members.emplace_back();
    }
    result.color_of[e] = best_color;
    const InterferenceGraph::Lifespan& span = graph.lifespan(e);
    std::vector<Member>& color = members[static_cast<std::size_t>(best_color)];
    color.insert(defined_after(color, span.def_step),
                 {span.def_step, span.last_use_step, e});
    auto& cs = color_size[static_cast<std::size_t>(best_color)];
    cs = std::max(cs, bytes);
  }
  result.num_colors = static_cast<int>(color_size.size());
  result.total_bytes = total_size(graph, result.color_of, result.num_colors);
  LCMM_COUNT("entities", static_cast<std::int64_t>(n));
  LCMM_COUNT("colors", result.num_colors);
  LCMM_COUNT("candidates_tried", candidates_tried);
  LCMM_GAUGE("total_bytes", static_cast<double>(result.total_bytes));
  return result;
}

}  // namespace lcmm::core
