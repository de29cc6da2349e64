// Graphviz DOT export of a computation graph (`lcmm_compile --dot`), for
// debugging model builders and rendering topologies in the examples.
#pragma once

#include <string>

#include "graph/graph.hpp"

namespace lcmm::graph {

/// Renders layers as boxes and values as edges labelled with their shapes.
std::string to_dot(const ComputationGraph& graph);

}  // namespace lcmm::graph
