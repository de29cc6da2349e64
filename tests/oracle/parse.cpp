#include "oracle/parse.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

namespace lcmm::oracle {

using io::ParseError;

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

int parse_int(const std::string& s, int line) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError(line, "expected an integer, got '" + s + "'");
  }
}

/// Parses "AxB" (or a single "A" meaning "AxA").
std::pair<int, int> parse_pair(const std::string& s, int line) {
  const std::size_t x = s.find('x');
  if (x == std::string::npos) {
    const int v = parse_int(s, line);
    return {v, v};
  }
  return {parse_int(s.substr(0, x), line), parse_int(s.substr(x + 1), line)};
}

graph::FeatureShape parse_shape(const std::string& s, int line) {
  const std::size_t a = s.find('x');
  const std::size_t b = a == std::string::npos ? a : s.find('x', a + 1);
  if (a == std::string::npos || b == std::string::npos) {
    throw ParseError(line, "expected CxHxW shape, got '" + s + "'");
  }
  const graph::FeatureShape shape{parse_int(s.substr(0, a), line),
                                  parse_int(s.substr(a + 1, b - a - 1), line),
                                  parse_int(s.substr(b + 1), line)};
  // Validate the element product eagerly: dims whose product wraps int64
  // must die here as a ParseError, not masquerade as a tiny tensor deep in
  // the allocator (elems() is overflow-checked via resil::checked_mul).
  (void)shape.elems();
  return shape;
}

/// key=value arguments plus bare flags.
struct Args {
  std::map<std::string, std::string> kv;
  std::vector<std::string> flags;
  int line;

  bool has(const std::string& key) const { return kv.count(key) != 0; }
  bool flag(const std::string& name) const {
    return std::find(flags.begin(), flags.end(), name) != flags.end();
  }
  std::string get(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      throw ParseError(line, "missing required argument '" + key + "='");
    }
    return it->second;
  }
  std::string get_or(const std::string& key, const std::string& fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
};

Args parse_args(const std::vector<std::string>& tokens, std::size_t from,
                int line) {
  Args args;
  args.line = line;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      args.flags.push_back(tokens[i]);
    } else {
      args.kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
    }
  }
  return args;
}

class Parser {
 public:
  graph::ComputationGraph run(std::string_view text) {
    std::optional<graph::ComputationGraph> g;
    std::istringstream stream{std::string(text)};
    std::string raw;
    int line = 0;
    while (std::getline(stream, raw)) {
      ++line;
      const std::vector<std::string> tokens = tokenize(raw);
      if (tokens.empty()) continue;
      const std::string& op = tokens[0];
      if (op == "graph") {
        if (g.has_value()) throw ParseError(line, "duplicate 'graph' line");
        if (tokens.size() != 2) throw ParseError(line, "usage: graph <name>");
        g.emplace(tokens[1]);
        continue;
      }
      if (!g.has_value()) {
        throw ParseError(line, "file must start with 'graph <name>'");
      }
      try {
        dispatch(*g, op, tokens, line);
      } catch (const ParseError&) {
        throw;
      } catch (const resil::CompileError& e) {
        // Preserve the typed code (e.g. kSizeOverflow from checked dims).
        throw ParseError(line, e.code(), e.info().message);
      } catch (const std::exception& e) {
        throw ParseError(line, e.what());
      }
    }
    if (!g.has_value()) throw ParseError(line, "empty file");
    g->validate();
    g->shrink_to_fit();
    return std::move(*g);
  }

 private:
  void dispatch(graph::ComputationGraph& g, const std::string& op,
                const std::vector<std::string>& tokens, int line) {
    if (op == "stage") {
      if (tokens.size() != 2) throw ParseError(line, "usage: stage <label>");
      g.set_stage(tokens[1]);
      return;
    }
    if (op == "input") {
      if (tokens.size() != 3) {
        throw ParseError(line, "usage: input <name> CxHxW");
      }
      define(tokens[1], g.add_input(tokens[1], parse_shape(tokens[2], line)),
             line);
      return;
    }
    if (tokens.size() < 3) {
      throw ParseError(line, "usage: " + op + " <name> <input> ...");
    }
    const std::string& name = tokens[1];
    if (op == "conv") {
      const Args args = parse_args(tokens, 3, line);
      graph::ConvParams p;
      p.out_channels = parse_int(args.get("out"), line);
      std::tie(p.kernel_h, p.kernel_w) = parse_pair(args.get("kernel"), line);
      p.stride = parse_int(args.get_or("stride", "1"), line);
      std::tie(p.pad_h, p.pad_w) = parse_pair(args.get_or("pad", "0x0"), line);
      p.groups = parse_int(args.get_or("groups", "1"), line);
      graph::ValueId residual = graph::kInvalidValue;
      if (args.has("residual")) residual = lookup(args.get("residual"), line);
      define(name, g.add_conv(name, lookup(tokens[2], line), p, residual), line);
      return;
    }
    if (op == "fc") {
      const Args args = parse_args(tokens, 3, line);
      define(name,
             g.add_fc(name, lookup(tokens[2], line),
                      parse_int(args.get("out"), line)),
             line);
      return;
    }
    if (op == "pool" || op == "gpool") {
      const Args args = parse_args(tokens, 3, line);
      graph::PoolParams p;
      const std::string type = args.get_or("type", "max");
      if (type == "max") {
        p.type = graph::PoolType::kMax;
      } else if (type == "avg") {
        p.type = graph::PoolType::kAvg;
      } else {
        throw ParseError(line, "pool type must be max or avg");
      }
      if (op == "gpool") {
        p.global = true;
      } else {
        p.kernel = parse_int(args.get("kernel"), line);
        p.stride = parse_int(args.get_or("stride", "1"), line);
        p.pad = parse_int(args.get_or("pad", "0"), line);
        p.ceil_mode = args.flag("ceil");
      }
      define(name, g.add_pool(name, lookup(tokens[2], line), p), line);
      return;
    }
    if (op == "concat") {
      std::vector<graph::ValueId> parts;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        parts.push_back(lookup(tokens[i], line));
      }
      define(name, g.add_concat(name, parts), line);
      return;
    }
    throw ParseError(line, "unknown statement '" + op + "'");
  }

  void define(const std::string& name, graph::ValueId value, int line) {
    if (!values_.emplace(name, value).second) {
      throw ParseError(line, "duplicate name '" + name + "'");
    }
  }

  graph::ValueId lookup(const std::string& name, int line) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw ParseError(line, "unknown value '" + name + "'");
    }
    return it->second;
  }

  std::map<std::string, graph::ValueId> values_;
};

}  // namespace

graph::ComputationGraph string_parse_graph(std::string_view text) {
  try {
    return Parser().run(text);
  } catch (const ParseError&) {
    throw;
  } catch (const resil::CompileError& e) {
    throw ParseError(0, e.code(), e.info().message);
  }
}

}  // namespace lcmm::oracle
