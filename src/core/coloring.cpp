#include "core/coloring.hpp"

#include <algorithm>
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
  const std::vector<TensorEntity>& entities = graph.entities();

  // Largest entities first: they define buffer sizes, smaller ones pack in.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return entities[a].bytes > entities[b].bytes;
  });

  // Color c's step set is held[c * words, (c + 1) * words): bit k stands
  // for step first_step + k and is set when a member is live there.
  int first_step = entities[0].def_step;
  int last_step = entities[0].last_use_step;
  for (const TensorEntity& entity : entities) {
    first_step = std::min(first_step, entity.def_step);
    last_step = std::max(last_step, entity.last_use_step);
  }
  const std::size_t words = static_cast<std::size_t>(last_step - first_step) / 64 + 1;
  std::vector<std::uint64_t> held;
  std::vector<std::int64_t> color_size;  // its first member's bytes

  // The words under a lifespan, with the step masks of its first and last.
  struct SpanWords {
    std::size_t first = 0;
    std::size_t last = 0;
    std::uint64_t first_mask = 0;
    std::uint64_t last_mask = 0;
  };
  const auto span_words = [&](std::size_t e) {
    const TensorEntity& span = entities[e];
    const auto lo = static_cast<std::size_t>(span.def_step - first_step);
    const auto hi = static_cast<std::size_t>(span.last_use_step - first_step);
    return SpanWords{lo / 64, hi / 64, ~std::uint64_t{0} << (lo % 64),
                     ~std::uint64_t{0} >> (63 - hi % 64)};
  };

  // `e` fits color c when it shares no step with the color's members and
  // the color holds none of its false-edge partners.
  const auto fits = [&](std::size_t c, std::size_t e, const SpanWords& w) {
    const std::uint64_t* const set = held.data() + c * words;
    std::uint64_t mask = w.first_mask;
    for (std::size_t i = w.first; i < w.last; ++i, mask = ~std::uint64_t{0}) {
      if (set[i] & mask) return false;
    }
    if (set[w.last] & mask & w.last_mask) return false;
    if (!graph.has_false_edge(e)) return true;
    const int color = static_cast<int>(c);
    return std::none_of(
        graph.false_edges().begin(), graph.false_edges().end(),
        [&](const std::pair<std::size_t, std::size_t>& edge) {
          return (edge.first == e && result.color_of[edge.second] == color) ||
                 (edge.second == e && result.color_of[edge.first] == color);
        });
  };

  for (std::size_t e : order) {
    const std::int64_t bytes = entities[e].bytes;
    const SpanWords w = span_words(e);
    // Sizes never rise with the index: scan back from the newest color and
    // stop at the first larger size after a fit. A 0-byte entity asks none.
    const std::size_t fresh = color_size.size();
    std::size_t best = fresh;
    for (std::size_t c = bytes > 0 ? fresh : 0; c-- > 0;) {
      if (best != fresh && color_size[c] > color_size[best]) break;
      ++candidates_tried;
      if (fits(c, e, w)) best = c;
    }
    if (best == fresh) {
      color_size.push_back(bytes);
      held.resize(held.size() + words);
      result.total_bytes += bytes;
    }
    result.color_of[e] = static_cast<int>(best);
    std::uint64_t* const set = held.data() + best * words;
    std::uint64_t mask = w.first_mask;
    for (std::size_t i = w.first; i < w.last; ++i, mask = ~std::uint64_t{0}) {
      set[i] |= mask;
    }
    set[w.last] |= mask & w.last_mask;
  }
  result.num_colors = static_cast<int>(color_size.size());
  LCMM_COUNT("entities", static_cast<std::int64_t>(n));
  LCMM_COUNT("colors", result.num_colors);
  LCMM_COUNT("candidates_tried", candidates_tried);
  LCMM_GAUGE("total_bytes", static_cast<double>(result.total_bytes));
  return result;
}

}  // namespace lcmm::core
