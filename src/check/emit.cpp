#include "check/emit.hpp"

#include <map>
#include <sstream>

namespace lcmm::check {

namespace {

const char* sarif_level(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "none";
}

}  // namespace

std::string RunLabel::describe() const {
  std::string out = network;
  if (!design.empty()) out += (out.empty() ? "" : "/") + design;
  if (!precision.empty()) out += (out.empty() ? "" : "/") + precision;
  return out;
}

std::string to_text(const CheckReport& report, const RunLabel& label) {
  std::ostringstream os;
  const std::string prefix =
      label.describe().empty() ? "" : label.describe() + ": ";
  for (const Diagnostic& d : report.diagnostics()) {
    os << prefix << code_id(d.code) << " " << to_string(d.severity) << " ["
       << d.pass << "]: " << d.message;
    const std::string where = d.location.describe();
    if (!where.empty()) os << " (" << where << ")";
    os << "\n";
  }
  os << prefix << "check: ";
  if (report.diagnostics().empty()) {
    os << "clean\n";
  } else {
    os << report.num_errors() << " error(s), " << report.num_warnings()
       << " warning(s), " << report.count(Severity::kNote) << " note(s)\n";
  }
  return os.str();
}

util::Json to_json(const CheckReport& report, const RunLabel& label) {
  util::Json out = util::Json::object();
  out["schema"] = "lcmm-check-v1";
  if (!label.network.empty()) out["network"] = label.network;
  if (!label.design.empty()) out["design"] = label.design;
  if (!label.precision.empty()) out["precision"] = label.precision;
  out["errors"] = report.num_errors();
  out["warnings"] = report.num_warnings();
  out["notes"] = report.count(Severity::kNote);
  util::Json diags = util::Json::array();
  for (const Diagnostic& d : report.diagnostics()) {
    util::Json j = util::Json::object();
    j["code"] = code_id(d.code);
    j["rule"] = code_name(d.code);
    j["severity"] = to_string(d.severity);
    j["pass"] = d.pass;
    j["message"] = d.message;
    if (d.location.layer != graph::kInvalidLayer) {
      j["layer"] = static_cast<std::int64_t>(d.location.layer);
    }
    if (!d.location.layer_name.empty()) {
      j["layer_name"] = d.location.layer_name;
    }
    if (!d.location.tensor.empty()) j["tensor"] = d.location.tensor;
    if (d.location.step >= 0) j["step"] = d.location.step;
    if (d.location.buffer_id >= 0) j["buffer"] = d.location.buffer_id;
    diags.push(std::move(j));
  }
  out["diagnostics"] = std::move(diags);
  return out;
}

util::Json to_sarif(std::span<const CheckedPlan> runs) {
  util::Json driver = util::Json::object();
  driver["name"] = "lcmm_compile";
  driver["informationUri"] =
      "https://github.com/lcmm/lcmm/blob/main/docs/diagnostics.md";
  driver["version"] = "1.0.0";

  util::Json rules = util::Json::array();
  std::map<std::string, std::int64_t> rule_index;
  for (Code code : all_codes()) {
    util::Json rule = util::Json::object();
    rule["id"] = code_id(code);
    rule["name"] = code_name(code);
    util::Json text = util::Json::object();
    text["text"] = code_summary(code);
    rule["shortDescription"] = std::move(text);
    util::Json config = util::Json::object();
    config["level"] = sarif_level(default_severity(code));
    rule["defaultConfiguration"] = std::move(config);
    if (*code_paper_section(code) != '\0') {
      util::Json props = util::Json::object();
      props["paperSection"] = code_paper_section(code);
      rule["properties"] = std::move(props);
    }
    rule_index[code_id(code)] = static_cast<std::int64_t>(rules.size());
    rules.push(std::move(rule));
  }
  driver["rules"] = std::move(rules);

  util::Json results = util::Json::array();
  for (const CheckedPlan& run : runs) {
    for (const Diagnostic& d : run.report.diagnostics()) {
      util::Json result = util::Json::object();
      result["ruleId"] = code_id(d.code);
      result["ruleIndex"] = rule_index.at(code_id(d.code));
      result["level"] = sarif_level(d.severity);
      util::Json message = util::Json::object();
      message["text"] = run.label.describe().empty()
                            ? d.message
                            : run.label.describe() + ": " + d.message;
      result["message"] = std::move(message);

      // Plans have no source files; locations are logical (model/tensor)
      // with a synthetic artifact URI so viewers have something to group by.
      util::Json logical = util::Json::object();
      std::string fq = run.label.network.empty() ? "plan" : run.label.network;
      if (!d.location.layer_name.empty()) fq += "/" + d.location.layer_name;
      if (!d.location.tensor.empty()) fq += "/" + d.location.tensor;
      logical["fullyQualifiedName"] = fq;
      logical["kind"] = "member";
      util::Json logicals = util::Json::array();
      logicals.push(std::move(logical));
      util::Json artifact = util::Json::object();
      artifact["uri"] =
          "model/" + (run.label.network.empty() ? "plan" : run.label.network);
      util::Json physical = util::Json::object();
      physical["artifactLocation"] = std::move(artifact);
      util::Json location = util::Json::object();
      location["logicalLocations"] = std::move(logicals);
      location["physicalLocation"] = std::move(physical);
      util::Json locations = util::Json::array();
      locations.push(std::move(location));
      result["locations"] = std::move(locations);

      util::Json props = util::Json::object();
      props["pass"] = d.pass;
      if (!run.label.network.empty()) props["network"] = run.label.network;
      if (!run.label.design.empty()) props["design"] = run.label.design;
      if (!run.label.precision.empty()) {
        props["precision"] = run.label.precision;
      }
      if (d.location.step >= 0) props["step"] = d.location.step;
      if (d.location.buffer_id >= 0) props["buffer"] = d.location.buffer_id;
      result["properties"] = std::move(props);
      results.push(std::move(result));
    }
  }

  util::Json tool = util::Json::object();
  tool["driver"] = std::move(driver);
  util::Json run = util::Json::object();
  run["tool"] = std::move(tool);
  run["columnKind"] = "utf16CodeUnits";
  run["results"] = std::move(results);
  util::Json out = util::Json::object();
  out["$schema"] =
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/"
      "sarif-schema-2.1.0.json";
  out["version"] = "2.1.0";
  util::Json runs_arr = util::Json::array();
  runs_arr.push(std::move(run));
  out["runs"] = std::move(runs_arr);
  return out;
}

}  // namespace lcmm::check
