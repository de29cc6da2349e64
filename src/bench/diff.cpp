#include "bench/diff.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace lcmm::bench {

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative wildcard match with backtracking over the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

double parse_tolerance_value(const std::string& token, int line) {
  try {
    std::size_t used = 0;
    const double v = std::stod(token, &used);
    if (used != token.size() || v < 0 || !std::isfinite(v)) {
      throw std::invalid_argument(token);
    }
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("tolerance spec line " + std::to_string(line) +
                             ": bad value '" + token + "'");
  }
}

}  // namespace

ToleranceSpec ToleranceSpec::parse(std::string_view text) {
  ToleranceSpec spec;
  std::istringstream lines{std::string(text)};
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string pattern;
    if (!(fields >> pattern)) continue;  // blank / comment-only line
    Tolerance tol;
    bool saw_value = false;
    std::string kv;
    while (fields >> kv) {
      const std::size_t eq = kv.find('=');
      const std::string k = kv.substr(0, eq);
      if (eq == std::string::npos || (k != "rel" && k != "abs")) {
        throw std::runtime_error("tolerance spec line " +
                                 std::to_string(lineno) + ": expected rel=… "
                                 "or abs=…, got '" + kv + "'");
      }
      const double v = parse_tolerance_value(kv.substr(eq + 1), lineno);
      (k == "rel" ? tol.rel : tol.abs) = v;
      saw_value = true;
    }
    if (!saw_value) {
      throw std::runtime_error("tolerance spec line " + std::to_string(lineno) +
                               ": rule '" + pattern + "' has no rel=/abs=");
    }
    if (pattern == "default") {
      spec.fallback_ = tol;
    } else {
      spec.rules_.push_back({std::move(pattern), tol});
    }
  }
  return spec;
}

ToleranceSpec ToleranceSpec::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read tolerance spec '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

Tolerance ToleranceSpec::lookup(const std::string& suite,
                                const Metric& metric) const {
  const std::string target = suite + "/" + metric.key();
  Tolerance result = fallback_;
  for (const Rule& rule : rules_) {
    if (glob_match(rule.pattern, target)) result = rule.tol;
  }
  return result;
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kImprovement: return "improvement";
    case Verdict::kWithinTolerance: return "ok";
    case Verdict::kRegression: return "REGRESSION";
    case Verdict::kMissing: return "MISSING";
    case Verdict::kNew: return "new";
  }
  return "?";
}

double MetricDelta::rel_change() const {
  if (base != 0.0) return (current - base) / std::fabs(base);
  if (current == base) return 0.0;
  return std::numeric_limits<double>::infinity();
}

DiffResult diff_runs(const BenchRun& baseline, const BenchRun& current,
                     const ToleranceSpec& spec) {
  if (baseline.suite() != current.suite()) {
    throw std::runtime_error("bench diff: suite mismatch ('" +
                             baseline.suite() + "' vs '" + current.suite() +
                             "')");
  }
  DiffResult result;
  result.suite = current.suite();

  for (const Metric& base : baseline.metrics()) {
    MetricDelta d;
    d.key = base.key();
    d.unit = base.unit;
    d.direction = base.direction;
    d.kind = base.kind;
    d.has_base = true;
    d.base = base.value;
    d.tolerance = spec.lookup(result.suite, base);
    d.gates = base.kind == Kind::kModel;

    const Metric* cur = current.find(d.key);
    if (cur == nullptr) {
      d.verdict = Verdict::kMissing;
      if (d.gates) {
        ++result.missing;
        result.gate_failed = true;
      }
      result.deltas.push_back(std::move(d));
      continue;
    }
    d.has_current = true;
    d.current = cur->value;
    const double margin =
        std::max(d.tolerance.abs, d.tolerance.rel * std::fabs(d.base));
    const double delta = d.current - d.base;
    if (std::fabs(delta) <= margin) {
      d.verdict = Verdict::kWithinTolerance;
    } else {
      const bool worse = d.direction == Direction::kLowerIsBetter ? delta > 0
                                                                  : delta < 0;
      d.verdict = worse ? Verdict::kRegression : Verdict::kImprovement;
      if (worse && d.gates) {
        ++result.regressions;
        result.gate_failed = true;
      } else if (!worse && d.gates) {
        ++result.improvements;
      }
    }
    result.deltas.push_back(std::move(d));
  }

  for (const Metric& cur : current.metrics()) {
    if (baseline.find(cur.key()) != nullptr) continue;
    MetricDelta d;
    d.key = cur.key();
    d.unit = cur.unit;
    d.direction = cur.direction;
    d.kind = cur.kind;
    d.has_current = true;
    d.current = cur.value;
    d.tolerance = spec.lookup(result.suite, cur);
    d.verdict = Verdict::kNew;
    ++result.added;
    result.deltas.push_back(std::move(d));
  }
  return result;
}

namespace {

std::string fmt_value(double v) {
  // Enough digits to tell exact-match metrics apart without drowning the
  // table in noise.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt_delta(const MetricDelta& d) {
  if (!d.has_base || !d.has_current) return "-";
  const double rel = d.rel_change();
  std::string out = d.delta() >= 0 ? "+" : "";
  out += fmt_value(d.delta());
  if (std::isfinite(rel)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " (%+.2f%%)", rel * 100.0);
    out += buf;
  }
  return out;
}

std::string fmt_tolerance(const Tolerance& t) {
  std::string out;
  if (t.rel > 0) out += "rel " + fmt_value(t.rel * 100.0) + "%";
  if (t.abs > 0) {
    if (!out.empty()) out += ", ";
    out += "abs " + fmt_value(t.abs);
  }
  return out.empty() ? "exact" : out;
}

std::string summary_line(const DiffResult& r) {
  std::ostringstream out;
  out << "suite " << r.suite << ": " << r.deltas.size() << " metrics, "
      << r.regressions << " regression" << (r.regressions == 1 ? "" : "s")
      << ", " << r.missing << " missing, " << r.improvements
      << " improvement" << (r.improvements == 1 ? "" : "s") << ", " << r.added
      << " new — " << (r.gate_failed ? "GATE FAILED" : "gate passed");
  return out.str();
}

}  // namespace

std::string render_text(const DiffResult& result) {
  util::Table table(
      {"metric", "unit", "baseline", "current", "delta", "tolerance", "verdict"});
  for (const MetricDelta& d : result.deltas) {
    std::string verdict = to_string(d.verdict);
    if (!d.gates && d.kind == Kind::kWall) verdict += " (wall, not gated)";
    table.add_row({d.key, d.unit, d.has_base ? fmt_value(d.base) : "-",
                   d.has_current ? fmt_value(d.current) : "-", fmt_delta(d),
                   fmt_tolerance(d.tolerance), verdict});
  }
  return table.to_string() + summary_line(result) + "\n";
}

std::string render_markdown(const DiffResult& result) {
  std::ostringstream out;
  out << "### Bench delta — `" << result.suite << "`\n\n"
      << (result.gate_failed ? "**GATE FAILED**" : "gate passed") << ": "
      << result.regressions << " regressions, " << result.missing
      << " missing, " << result.improvements << " improvements, "
      << result.added << " new\n\n"
      << "| metric | unit | baseline | current | delta | tolerance | verdict |\n"
      << "|---|---|---:|---:|---:|---|---|\n";
  for (const MetricDelta& d : result.deltas) {
    std::string verdict = to_string(d.verdict);
    if (d.verdict == Verdict::kRegression || d.verdict == Verdict::kMissing) {
      verdict = "**" + verdict + "**";
    }
    if (!d.gates && d.kind == Kind::kWall) verdict += " _(wall)_";
    out << "| `" << d.key << "` | " << d.unit << " | "
        << (d.has_base ? fmt_value(d.base) : "-") << " | "
        << (d.has_current ? fmt_value(d.current) : "-") << " | "
        << fmt_delta(d) << " | " << fmt_tolerance(d.tolerance) << " | "
        << verdict << " |\n";
  }
  return out.str();
}

}  // namespace lcmm::bench
