#include "core/interference.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/scope.hpp"
#include "resil/error.hpp"

namespace lcmm::core {

InterferenceGraph::InterferenceGraph(std::vector<TensorEntity> entities)
    : entities_(std::move(entities)), has_false_edge_(entities_.size(), 0) {
  LCMM_SPAN("interference");
  for (const TensorEntity& e : entities_) {
    if (e.def_step < kBeforeExecution || e.def_step > e.last_use_step) {
      throw resil::OptionError(resil::Code::kBadArgument, "pass.interference",
                               "InterferenceGraph: lifespan [" +
                                   std::to_string(e.def_step) + ", " +
                                   std::to_string(e.last_use_step) +
                                   "] is empty or starts before execution",
                               "layer " + std::to_string(e.key.layer) + " " +
                                   to_string(e.key.source));
    }
  }
  LCMM_COUNT("entities", static_cast<std::int64_t>(entities_.size()));
}

void InterferenceGraph::check_pair(std::size_t a, std::size_t b) const {
  if (a == b || a >= entities_.size() || b >= entities_.size()) {
    throw std::out_of_range("InterferenceGraph: bad pair");
  }
}

bool InterferenceGraph::listed(std::size_t a, std::size_t b) const {
  const std::pair<std::size_t, std::size_t> edge = std::minmax(a, b);
  return std::find(false_edges_.begin(), false_edges_.end(), edge) !=
         false_edges_.end();
}

bool InterferenceGraph::interferes(std::size_t a, std::size_t b) const {
  if (a == b) return true;
  check_pair(a, b);
  if (entities_[a].overlaps(entities_[b])) return true;
  return has_false_edge_[a] && has_false_edge_[b] && listed(a, b);
}

void InterferenceGraph::add_false_edge(std::size_t a, std::size_t b) {
  check_pair(a, b);
  if (interferes(a, b)) return;
  false_edges_.push_back(std::minmax(a, b));
  has_false_edge_[a] = 1;
  has_false_edge_[b] = 1;
}

bool InterferenceGraph::is_false_edge(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  check_pair(a, b);
  return listed(a, b);
}

std::size_t InterferenceGraph::num_edges() const {
  std::size_t edges = false_edges_.size();
  for (std::size_t a = 0; a < entities_.size(); ++a) {
    for (std::size_t b = a + 1; b < entities_.size(); ++b) {
      edges += entities_[a].overlaps(entities_[b]);
    }
  }
  return edges;
}

}  // namespace lcmm::core
