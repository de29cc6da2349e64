// Text serialization of computation graphs (".lcmm" files).
//
// The format is line oriented; '#' starts a comment. Values are referenced
// by name: a graph input by its declared name, a layer's output by the
// layer name, a concatenated value by the concat statement's name.
//
//   graph tiny
//   input image 3x224x224
//   stage conv1
//   conv conv1 image out=64 kernel=7x7 stride=2 pad=3x3
//   pool pool1 conv1 type=max kernel=3 stride=2 ceil
//   conv left pool1 out=32 kernel=1x1
//   conv right pool1 out=32 kernel=3x3 pad=1x1
//   concat merged left right
//   conv tail merged out=64 kernel=1x1 residual=pool1   # fused shortcut
//   gpool gap tail type=avg
//   fc classifier gap out=1000
//
// serialize() emits this format; parse() accepts it. Round trips preserve
// the graph structure exactly (names, stages, shapes, topology).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "graph/graph.hpp"
#include "resil/error.hpp"

namespace lcmm::io {

/// Error with 1-based line information. Typed (LCMM-E701 by default) and a
/// CompileError, so batch sweeps report parse failures with code + site
/// like any other compile failure.
class ParseError : public resil::CompileError {
 public:
  ParseError(int line, const std::string& message)
      : ParseError(line, resil::Code::kParseError, message) {}
  ParseError(int line, resil::Code code, const std::string& message)
      : resil::CompileError(
            code, "io.parse",
            (line > 0 ? "line " + std::to_string(line) + ": " : "") + message),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parses the text format. Throws ParseError on malformed input; a graph
/// the builder rejects (a shape mismatch, bad grouping) is a ParseError at
/// its line too. Records an obs span "parse" with counters lines, layers
/// and bytes.
graph::ComputationGraph parse_graph(std::string_view text);

/// Renders `graph` in the text format (stable, parse-compatible).
std::string serialize_graph(const graph::ComputationGraph& graph);

/// File helpers.
graph::ComputationGraph load_graph_file(const std::string& path);
void save_graph_file(const graph::ComputationGraph& graph,
                     const std::string& path);

}  // namespace lcmm::io
