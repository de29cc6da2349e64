// Test-only reference: the .lcmm parser that io::parse_graph replaced. It
// copies every line and token into std::strings and keys its name table
// by them; it is kept as it was, so the differential tests
// (test_io.cpp) can hold the view-based parser to it: the same graph, or
// the same error type, code, line and message.
#pragma once

#include <string_view>

#include "graph/graph.hpp"
#include "io/text_format.hpp"

namespace lcmm::oracle {

/// Parses `text` as io::parse_graph did before it read through views
/// (without its fault-injection site).
graph::ComputationGraph string_parse_graph(std::string_view text);

}  // namespace lcmm::oracle
