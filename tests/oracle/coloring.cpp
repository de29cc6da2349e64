#include "oracle/coloring.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "resil/error.hpp"

namespace lcmm::oracle {

namespace {

std::int64_t total_size(const core::InterferenceGraph& graph,
                        const std::vector<int>& color_of, int num_colors) {
  std::vector<std::int64_t> color_max(static_cast<std::size_t>(num_colors), 0);
  for (std::size_t i = 0; i < color_of.size(); ++i) {
    auto& m = color_max[static_cast<std::size_t>(color_of[i])];
    m = std::max(m, graph.entities()[i].bytes);
  }
  return std::accumulate(color_max.begin(), color_max.end(), std::int64_t{0});
}

}  // namespace

core::ColoringResult color_optimal_small(const core::InterferenceGraph& graph,
                                         std::size_t max_entities) {
  const std::size_t n = graph.size();
  if (n > max_entities) {
    throw resil::OptionError(
        resil::Code::kGraphTooLarge, "pass.coloring",
        "color_optimal_small: graph too large (" + std::to_string(n) +
            " entities)");
  }
  core::ColoringResult best;
  if (n == 0) return best;

  std::vector<int> assignment(n, -1);
  std::int64_t best_total = std::numeric_limits<std::int64_t>::max();

  // Restricted-growth enumeration of set partitions with interference pruning.
  auto recurse = [&](auto&& self, std::size_t i, int used_colors) -> void {
    if (i == n) {
      const std::int64_t total = total_size(graph, assignment, used_colors);
      if (total < best_total) {
        best_total = total;
        best.color_of = assignment;
        best.num_colors = used_colors;
        best.total_bytes = total;
      }
      return;
    }
    for (int c = 0; c <= used_colors && c < static_cast<int>(n); ++c) {
      bool ok = true;
      for (std::size_t j = 0; j < i && ok; ++j) {
        if (assignment[j] == c && graph.interferes(i, j)) ok = false;
      }
      if (!ok) continue;
      assignment[i] = c;
      self(self, i + 1, std::max(used_colors, c + 1));
      assignment[i] = -1;
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

bool coloring_is_valid(const core::InterferenceGraph& graph,
                       const core::ColoringResult& result) {
  if (result.color_of.size() != graph.size()) return false;
  for (std::size_t a = 0; a < graph.size(); ++a) {
    if (result.color_of[a] < 0 || result.color_of[a] >= result.num_colors) {
      return false;
    }
    for (std::size_t b = a + 1; b < graph.size(); ++b) {
      if (result.color_of[a] == result.color_of[b] && graph.interferes(a, b)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace lcmm::oracle
