#include "io/text_format.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/scope.hpp"
#include "resil/fault.hpp"

namespace lcmm::io {

namespace {

bool is_separator(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Splits `line` at separators, up to the first '#', into views of it.
void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  const std::size_t end = std::min(line.find('#'), line.size());
  std::size_t i = 0;
  while (i < end) {
    if (is_separator(line[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < end && !is_separator(line[i])) ++i;
    tokens.push_back(line.substr(start, i - start));
  }
}

/// The std::stoi path: every form it accepts ("+8", a leading '\v') reads
/// as it does, and every form it rejects gets the same message.
int parse_int_stoi(const std::string& s, int line) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError(line, "expected an integer, got '" + s + "'");
  }
}

int parse_int(std::string_view s, int line) {
  // -?[0-9]{1,9} cannot overflow, and std::stoi reads it to the same value.
  const std::size_t sign = !s.empty() && s[0] == '-' ? 1 : 0;
  const std::size_t digits = s.size() - sign;
  if (digits >= 1 && digits <= 9) {
    int v = 0;
    std::size_t i = sign;
    for (; i < s.size(); ++i) {
      const unsigned d = static_cast<unsigned char>(s[i]) - unsigned{'0'};
      if (d > 9) break;
      v = v * 10 + static_cast<int>(d);
    }
    if (i == s.size()) return sign ? -v : v;
  }
  return parse_int_stoi(std::string(s), line);
}

/// Parses "AxB" (or a single "A" meaning "AxA").
std::pair<int, int> parse_pair(std::string_view s, int line) {
  const std::size_t x = s.find('x');
  if (x == std::string_view::npos) {
    const int v = parse_int(s, line);
    return {v, v};
  }
  return {parse_int(s.substr(0, x), line), parse_int(s.substr(x + 1), line)};
}

graph::FeatureShape parse_shape(std::string_view s, int line) {
  const std::size_t a = s.find('x');
  const std::size_t b = a == std::string_view::npos ? a : s.find('x', a + 1);
  if (a == std::string_view::npos || b == std::string_view::npos) {
    throw ParseError(line, "expected CxHxW shape, got '" + std::string(s) + "'");
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

/// key=value arguments plus bare flags of one statement, as views of its
/// tokens. A repeated key keeps its last value.
struct Args {
  std::vector<std::pair<std::string_view, std::string_view>> kv;
  std::vector<std::string_view> flags;
  int line = 0;

  void parse(std::span<const std::string_view> tokens, int at_line) {
    kv.clear();
    flags.clear();
    line = at_line;
    for (std::string_view token : tokens) {
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos) {
        flags.push_back(token);
      } else {
        kv.emplace_back(token.substr(0, eq), token.substr(eq + 1));
      }
    }
  }
  const std::string_view* find(std::string_view key) const {
    for (auto it = kv.rbegin(); it != kv.rend(); ++it) {
      if (it->first == key) return &it->second;
    }
    return nullptr;
  }
  bool flag(std::string_view name) const {
    return std::find(flags.begin(), flags.end(), name) != flags.end();
  }
  std::string_view get(std::string_view key) const {
    if (const std::string_view* value = find(key)) return *value;
    throw ParseError(line,
                     "missing required argument '" + std::string(key) + "='");
  }
  std::string_view get_or(std::string_view key, std::string_view fallback) const {
    const std::string_view* value = find(key);
    return value ? *value : fallback;
  }
};

/// Reads the text through views of it: lines, tokens, arguments and the
/// name table all point into `text`, which outlives the parse.
class Parser {
 public:
  graph::ComputationGraph run(std::string_view text) {
    std::optional<graph::ComputationGraph> g;
    int line = 0;
    // Lines as std::getline splits them: a last line without '\n' counts,
    // a trailing '\n' adds none.
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t nl = std::min(text.find('\n', pos), text.size());
      const std::string_view raw = text.substr(pos, nl - pos);
      pos = nl + 1;
      ++line;
      tokenize(raw, tokens_);
      if (tokens_.empty()) continue;
      const std::string_view op = tokens_[0];
      if (op == "graph") {
        if (g.has_value()) throw ParseError(line, "duplicate 'graph' line");
        if (tokens_.size() != 2) throw ParseError(line, "usage: graph <name>");
        g.emplace(std::string(tokens_[1]));
        continue;
      }
      if (!g.has_value()) {
        throw ParseError(line, "file must start with 'graph <name>'");
      }
      try {
        dispatch(*g, op, line);
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
    LCMM_COUNT("lines", line);
    LCMM_COUNT("layers", static_cast<std::int64_t>(g->num_layers()));
    LCMM_COUNT("bytes", static_cast<std::int64_t>(text.size()));
    return std::move(*g);
  }

 private:
  void dispatch(graph::ComputationGraph& g, std::string_view op, int line) {
    const std::vector<std::string_view>& tokens = tokens_;
    if (op == "stage") {
      if (tokens.size() != 2) throw ParseError(line, "usage: stage <label>");
      g.set_stage(std::string(tokens[1]));
      return;
    }
    if (op == "input") {
      if (tokens.size() != 3) {
        throw ParseError(line, "usage: input <name> CxHxW");
      }
      define(tokens[1],
             g.add_input(std::string(tokens[1]), parse_shape(tokens[2], line)),
             line);
      return;
    }
    if (tokens.size() < 3) {
      throw ParseError(line, "usage: " + std::string(op) + " <name> <input> ...");
    }
    const std::string_view name = tokens[1];
    const std::span<const std::string_view> rest =
        std::span(tokens).subspan(3);
    if (op == "conv") {
      args_.parse(rest, line);
      graph::ConvParams p;
      p.out_channels = parse_int(args_.get("out"), line);
      std::tie(p.kernel_h, p.kernel_w) = parse_pair(args_.get("kernel"), line);
      p.stride = parse_int(args_.get_or("stride", "1"), line);
      std::tie(p.pad_h, p.pad_w) = parse_pair(args_.get_or("pad", "0x0"), line);
      p.groups = parse_int(args_.get_or("groups", "1"), line);
      graph::ValueId residual = graph::kInvalidValue;
      if (const std::string_view* ref = args_.find("residual")) {
        residual = lookup(*ref, line);
      }
      define(name,
             g.add_conv(std::string(name), lookup(tokens[2], line), p, residual),
             line);
      return;
    }
    if (op == "fc") {
      args_.parse(rest, line);
      define(name,
             g.add_fc(std::string(name), lookup(tokens[2], line),
                      parse_int(args_.get("out"), line)),
             line);
      return;
    }
    if (op == "pool" || op == "gpool") {
      args_.parse(rest, line);
      graph::PoolParams p;
      const std::string_view type = args_.get_or("type", "max");
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
        p.kernel = parse_int(args_.get("kernel"), line);
        p.stride = parse_int(args_.get_or("stride", "1"), line);
        p.pad = parse_int(args_.get_or("pad", "0"), line);
        p.ceil_mode = args_.flag("ceil");
      }
      define(name, g.add_pool(std::string(name), lookup(tokens[2], line), p),
             line);
      return;
    }
    if (op == "concat") {
      parts_.clear();
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        parts_.push_back(lookup(tokens[i], line));
      }
      define(name, g.add_concat(std::string(name), parts_), line);
      return;
    }
    throw ParseError(line, "unknown statement '" + std::string(op) + "'");
  }

  void define(std::string_view name, graph::ValueId value, int line) {
    if (!values_.emplace(name, value).second) {
      throw ParseError(line, "duplicate name '" + std::string(name) + "'");
    }
  }

  graph::ValueId lookup(std::string_view name, int line) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw ParseError(line, "unknown value '" + std::string(name) + "'");
    }
    return it->second;
  }

  std::vector<std::string_view> tokens_;
  Args args_;
  std::vector<graph::ValueId> parts_;
  std::unordered_map<std::string_view, graph::ValueId> values_;
};

std::string pair_str(int a, int b) {
  return a == b ? std::to_string(a)
                : std::to_string(a) + "x" + std::to_string(b);
}

}  // namespace

graph::ComputationGraph parse_graph(std::string_view text) {
  LCMM_SPAN("parse");
  resil::fault::Scope fault_scope;
  try {
    resil::fault::hit("io.parse");
    return Parser().run(text);
  } catch (const ParseError&) {
    throw;
  } catch (const resil::CompileError& e) {
    // Injected faults and overflow errors surface as ParseError too, so
    // callers have a single failure type for malformed input.
    throw ParseError(0, e.code(), e.info().message);
  }
}

std::string serialize_graph(const graph::ComputationGraph& graph) {
  std::ostringstream os;
  os << "graph " << graph.name() << "\n";

  // Value reference names: inputs by value name, layer outputs by layer
  // name, multi-producer values by an emitted concat statement.
  std::map<graph::ValueId, std::string> ref;
  for (graph::ValueId v : graph.live_values()) {
    if (graph.value(v).is_graph_input()) {
      ref[v] = graph.value(v).name;
      os << "input " << graph.value(v).name << " "
         << graph.value(v).shape.to_string() << "\n";
    }
  }

  std::string stage;
  std::map<graph::ValueId, int> remaining_producers;
  for (const graph::Layer& l : graph.layers()) {
    if (l.stage != stage) {
      stage = l.stage;
      if (!stage.empty()) os << "stage " << stage << "\n";
    }
    const graph::Value& out = graph.value(l.output);
    const bool merged = out.producers.size() > 1;
    if (l.kind == graph::LayerKind::kPool) {
      const graph::PoolParams& p = l.pool;
      if (p.global) {
        os << "gpool " << l.name << " " << ref.at(l.input)
           << (p.type == graph::PoolType::kAvg ? " type=avg" : " type=max")
           << "\n";
      } else {
        os << "pool " << l.name << " " << ref.at(l.input)
           << (p.type == graph::PoolType::kAvg ? " type=avg" : " type=max")
           << " kernel=" << p.kernel << " stride=" << p.stride;
        if (p.pad != 0) os << " pad=" << p.pad;
        if (p.ceil_mode) os << " ceil";
        os << "\n";
      }
    } else {
      const graph::ConvParams& p = l.conv;
      os << "conv " << l.name << " " << ref.at(l.input)
         << " out=" << graph.own_output_shape(l.id).channels
         << " kernel=" << pair_str(p.kernel_h, p.kernel_w);
      if (p.stride != 1) os << " stride=" << p.stride;
      if (p.pad_h != 0 || p.pad_w != 0) os << " pad=" << pair_str(p.pad_h, p.pad_w);
      if (p.groups != 1) os << " groups=" << p.groups;
      if (l.has_residual()) os << " residual=" << ref.at(l.residual);
      os << "\n";
    }
    if (!merged) {
      ref[l.output] = l.name;
      continue;
    }
    // Multi-producer value: once the last producer is emitted, emit the
    // concat with parts in channel-offset order.
    auto [it, inserted] = remaining_producers.emplace(
        l.output, static_cast<int>(out.producers.size()));
    (void)inserted;
    if (--it->second > 0) continue;
    std::vector<graph::LayerId> producers = out.producers;
    std::sort(producers.begin(), producers.end(),
              [&](graph::LayerId a, graph::LayerId b) {
                return graph.layer(a).output_channel_offset <
                       graph.layer(b).output_channel_offset;
              });
    os << "concat " << out.name;
    for (graph::LayerId p : producers) os << " " << graph.layer(p).name;
    os << "\n";
    ref[l.output] = out.name;
  }
  return os.str();
}

graph::ComputationGraph load_graph_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw resil::CompileError(resil::Code::kIoError, "io.file",
                              "cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_graph(buffer.str());
}

void save_graph_file(const graph::ComputationGraph& graph,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw resil::CompileError(resil::Code::kIoError, "io.file",
                              "cannot open '" + path + "' for writing");
  }
  out << serialize_graph(graph);
}

}  // namespace lcmm::io
