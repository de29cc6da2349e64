#include "core/coloring.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "obs/scope.hpp"

namespace lcmm::core {

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
  std::vector<std::int64_t> color_size;      // its first member's bytes
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
    // Sizes never rise with the index: scan back from the newest color and
    // stop at the first larger size after a fit. A 0-byte entity asks none.
    const std::size_t fresh = color_size.size();
    std::size_t best = fresh;
    for (std::size_t c = bytes > 0 ? fresh : 0; c-- > 0;) {
      if (best != fresh && color_size[c] > color_size[best]) break;
      ++candidates_tried;
      if (fits(members[c], e)) best = c;
    }
    if (best == fresh) {
      color_size.push_back(bytes);
      members.emplace_back();
      result.total_bytes += bytes;
    }
    result.color_of[e] = static_cast<int>(best);
    const InterferenceGraph::Lifespan& span = graph.lifespan(e);
    std::vector<Member>& color = members[best];
    color.insert(defined_after(color, span.def_step),
                 {span.def_step, span.last_use_step, e});
  }
  result.num_colors = static_cast<int>(color_size.size());
  LCMM_COUNT("entities", static_cast<std::int64_t>(n));
  LCMM_COUNT("colors", result.num_colors);
  LCMM_COUNT("candidates_tried", candidates_tried);
  LCMM_GAUGE("total_bytes", static_cast<double>(result.total_bytes));
  return result;
}

}  // namespace lcmm::core
