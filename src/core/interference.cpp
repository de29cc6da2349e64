#include "core/interference.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/scope.hpp"
#include "resil/error.hpp"

namespace lcmm::core {

InterferenceGraph::InterferenceGraph(std::vector<TensorEntity> entities)
    : entities_(std::move(entities)) {
  LCMM_SPAN("interference");
  lifespans_.reserve(entities_.size());
  for (const TensorEntity& e : entities_) {
    if (e.def_step < kBeforeExecution || e.def_step > e.last_use_step) {
      throw resil::OptionError(resil::Code::kBadArgument, "pass.interference",
                               "InterferenceGraph: lifespan [" +
                                   std::to_string(e.def_step) + ", " +
                                   std::to_string(e.last_use_step) +
                                   "] is empty or starts before execution",
                               e.name);
    }
    lifespans_.push_back({e.def_step, e.last_use_step, false});
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
  const Lifespan& x = lifespans_[a];
  const Lifespan& y = lifespans_[b];
  if (x.overlaps(y)) return true;
  return x.has_false_edge && y.has_false_edge && listed(a, b);
}

void InterferenceGraph::add_false_edge(std::size_t a, std::size_t b) {
  check_pair(a, b);
  if (interferes(a, b)) return;
  false_edges_.push_back(std::minmax(a, b));
  lifespans_[a].has_false_edge = true;
  lifespans_[b].has_false_edge = true;
}

bool InterferenceGraph::is_false_edge(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  check_pair(a, b);
  return listed(a, b);
}

std::size_t InterferenceGraph::num_edges() const {
  std::size_t edges = false_edges_.size();
  for (std::size_t a = 0; a < lifespans_.size(); ++a) {
    for (std::size_t b = a + 1; b < lifespans_.size(); ++b) {
      edges += lifespans_[a].overlaps(lifespans_[b]);
    }
  }
  return edges;
}

}  // namespace lcmm::core
