// lcmm::bench harness + diff tests: the JSON schema round-trips, the
// comparator hands out the right verdicts, the tolerance spec parses and
// matches, and the gated metrics are bit-identical across worker counts
// (the property that lets CI gate on model metrics at all).
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench.hpp"
#include "bench/diff.hpp"
#include "driver/batch.hpp"
#include "models/models.hpp"
#include "util/json.hpp"

namespace lcmm::bench {
namespace {

// ---------------------------------------------------------------- parser

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(util::Json::parse("null").is_null());
  EXPECT_EQ(util::Json::parse("true").as_bool(), true);
  EXPECT_EQ(util::Json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(util::Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(util::Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(JsonParse, NestedRoundTrip) {
  const std::string src =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":"é","d":[]}})";
  const util::Json doc = util::Json::parse(src);
  EXPECT_EQ(doc.dump(-1), util::Json::parse(doc.dump(2)).dump(-1));
  EXPECT_EQ(doc.at("b").at("c").as_string(), "\xc3\xa9");
  EXPECT_EQ(doc.at("a").at(1).as_double(), 2.5);
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    util::Json::parse("{\"a\": 1,\n  \"b\": }");
    FAIL() << "expected JsonParseError";
  } catch (const util::JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos) << e.what();
  }
  EXPECT_THROW(util::Json::parse("[1, 2] trailing"), util::JsonParseError);
  EXPECT_THROW(util::Json::parse(""), util::JsonParseError);
}

// ------------------------------------------------------------- BenchRun

BenchRun make_run(double latency, double speedup) {
  BenchRun run("unit_suite");
  run.add("latency_ms", latency, "ms", Direction::kLowerIsBetter,
          {{"net", "RN"}, {"precision", "int8"}});
  run.add("speedup", speedup, "x", Direction::kHigherIsBetter,
          {{"net", "RN"}});
  run.add_wall("compile_wall_s", 1.25);
  return run;
}

TEST(BenchRun, MetricKeyIsStable) {
  const BenchRun run = make_run(3.5, 1.4);
  EXPECT_EQ(run.metrics()[0].key(), "latency_ms{net=RN,precision=int8}");
  EXPECT_EQ(run.metrics()[2].key(), "compile_wall_s");
  EXPECT_NE(run.find("speedup{net=RN}"), nullptr);
  EXPECT_EQ(run.find("speedup"), nullptr);
}

TEST(BenchRun, DuplicateKeyThrows) {
  BenchRun run("unit_suite");
  run.add("speedup", 1.0, "x", Direction::kHigherIsBetter);
  EXPECT_THROW(run.add("speedup", 2.0, "x", Direction::kHigherIsBetter),
               std::logic_error);
}

TEST(BenchRun, JsonRoundTrip) {
  const BenchRun run = make_run(3.5, 1.4);
  const util::Json doc = run.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), kSchema);
  const BenchRun back = BenchRun::from_json(util::Json::parse(doc.dump(2)));
  ASSERT_EQ(back.metrics().size(), run.metrics().size());
  EXPECT_EQ(back.suite(), "unit_suite");
  for (std::size_t i = 0; i < run.metrics().size(); ++i) {
    const Metric& a = run.metrics()[i];
    const Metric& b = back.metrics()[i];
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.value, b.value);  // Bit-exact through dump/parse.
    EXPECT_EQ(a.unit, b.unit);
    EXPECT_EQ(a.direction, b.direction);
    EXPECT_EQ(a.kind, b.kind);
  }
}

TEST(BenchRun, FromJsonRejectsWrongSchema) {
  util::Json doc = make_run(1, 1).to_json();
  doc["schema"] = "lcmm-bench-v999";
  EXPECT_THROW(BenchRun::from_json(doc), std::runtime_error);
}

// ------------------------------------------------------ tolerance specs

TEST(ToleranceSpec, GlobMatch) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("table1_main/latency_ms*",
                         "table1_main/latency_ms{net=RN}"));
  EXPECT_TRUE(glob_match("*/speedup{net=?N}", "suite/speedup{net=RN}"));
  EXPECT_FALSE(glob_match("golden_plans/*", "table1_main/speedup"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
}

TEST(ToleranceSpec, LastMatchWinsAndDefaultOverrides) {
  const ToleranceSpec spec = ToleranceSpec::parse(
      "# comment\n"
      "default rel=0.10\n"
      "unit_suite/* rel=0.05 abs=0.5\n"
      "unit_suite/latency_ms* rel=0 abs=0\n");
  Metric latency{"latency_ms", {{"net", "RN"}}, 1, "ms",
                 Direction::kLowerIsBetter, Kind::kModel};
  Metric speedup{"speedup", {}, 1, "x", Direction::kHigherIsBetter,
                 Kind::kModel};
  EXPECT_EQ(spec.lookup("unit_suite", latency).rel, 0.0);
  EXPECT_EQ(spec.lookup("unit_suite", speedup).rel, 0.05);
  EXPECT_EQ(spec.lookup("unit_suite", speedup).abs, 0.5);
  EXPECT_EQ(spec.lookup("other_suite", speedup).rel, 0.10);
}

TEST(ToleranceSpec, MalformedLineThrowsWithLineNumber) {
  try {
    ToleranceSpec::parse("default rel=0.02\npattern rel=banana\n");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------- diffs

TEST(Diff, VerdictsPerMetric) {
  const BenchRun base = make_run(/*latency=*/10.0, /*speedup=*/2.0);
  BenchRun cur("unit_suite");
  // latency_ms is lower-is-better: 10 -> 8 is an improvement.
  cur.add("latency_ms", 8.0, "ms", Direction::kLowerIsBetter,
          {{"net", "RN"}, {"precision", "int8"}});
  // speedup is higher-is-better: 2.0 -> 1.5 is a regression at 2% rel.
  cur.add("speedup", 1.5, "x", Direction::kHigherIsBetter, {{"net", "RN"}});
  // compile_wall_s omitted -> missing, but wall metrics never gate.
  cur.add("new_metric", 1.0, "count", Direction::kHigherIsBetter);

  const DiffResult r = diff_runs(base, cur, ToleranceSpec{});
  ASSERT_EQ(r.deltas.size(), 4u);
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kImprovement);
  EXPECT_EQ(r.deltas[1].verdict, Verdict::kRegression);
  EXPECT_EQ(r.deltas[2].verdict, Verdict::kMissing);
  EXPECT_FALSE(r.deltas[2].gates);  // Wall-kind: reported, never gated.
  EXPECT_EQ(r.deltas[3].verdict, Verdict::kNew);
  EXPECT_EQ(r.regressions, 1);
  EXPECT_EQ(r.improvements, 1);
  EXPECT_EQ(r.added, 1);
  EXPECT_TRUE(r.gate_failed);
}

TEST(Diff, WithinToleranceDoesNotGate) {
  const BenchRun base = make_run(10.0, 2.0);
  BenchRun cur("unit_suite");
  cur.add("latency_ms", 10.1, "ms", Direction::kLowerIsBetter,
          {{"net", "RN"}, {"precision", "int8"}});  // +1% < 2% rel.
  cur.add("speedup", 1.99, "x", Direction::kHigherIsBetter, {{"net", "RN"}});
  cur.add_wall("compile_wall_s", 99.0);  // Wall regressions never gate.
  const DiffResult r = diff_runs(base, cur, ToleranceSpec{});
  EXPECT_FALSE(r.gate_failed);
  EXPECT_EQ(r.regressions, 0);
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kWithinTolerance);
}

TEST(Diff, MissingModelMetricGates) {
  BenchRun base("unit_suite");
  base.add("speedup", 2.0, "x", Direction::kHigherIsBetter);
  const BenchRun cur("unit_suite");
  const DiffResult r = diff_runs(base, cur, ToleranceSpec{});
  EXPECT_TRUE(r.gate_failed);
  EXPECT_EQ(r.missing, 1);
  // A missing wall-clock metric is reported but never gates.
  BenchRun wall_base("unit_suite");
  wall_base.add_wall("compile_wall_s", 1.0);
  const DiffResult w = diff_runs(wall_base, cur, ToleranceSpec{});
  EXPECT_FALSE(w.gate_failed);
  EXPECT_EQ(w.missing, 0);
  EXPECT_EQ(w.deltas.at(0).verdict, Verdict::kMissing);
}

TEST(Diff, SuiteMismatchThrows) {
  EXPECT_THROW(
      diff_runs(BenchRun("a"), BenchRun("b"), ToleranceSpec{}),
      std::runtime_error);
}

TEST(Diff, AbsToleranceAbsorbsSmallDeltas) {
  BenchRun base("unit_suite"), cur("unit_suite");
  base.add("gain_ms", 0.0, "ms", Direction::kHigherIsBetter);
  cur.add("gain_ms", -0.0005, "ms", Direction::kHigherIsBetter);
  // rel tolerance alone cannot absorb a from-zero change; abs can.
  EXPECT_TRUE(diff_runs(base, cur, ToleranceSpec{}).gate_failed);
  const ToleranceSpec spec = ToleranceSpec::parse("default rel=0 abs=0.001\n");
  EXPECT_FALSE(diff_runs(base, cur, spec).gate_failed);
}

TEST(Diff, RendersReadableTables) {
  const BenchRun base = make_run(10.0, 2.0);
  BenchRun cur("unit_suite");
  cur.add("latency_ms", 14.0, "ms", Direction::kLowerIsBetter,
          {{"net", "RN"}, {"precision", "int8"}});
  cur.add("speedup", 2.0, "x", Direction::kHigherIsBetter, {{"net", "RN"}});
  cur.add_wall("compile_wall_s", 1.25);
  const DiffResult r = diff_runs(base, cur, ToleranceSpec{});
  const std::string text = render_text(r);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("GATE FAILED"), std::string::npos);
  const std::string md = render_markdown(r);
  EXPECT_NE(md.find("| `latency_ms{net=RN,precision=int8}` |"),
            std::string::npos);
  EXPECT_NE(md.find("**REGRESSION**"), std::string::npos);
}

// -------------------------------------------------- determinism (gate)

// The CI gate only works because model metrics are bit-identical across
// worker counts: compile the gated nets with 1 and 8 workers and require
// the identical JSON document.
TEST(Determinism, GatedMetricsIdenticalAcrossWorkerCounts) {
  std::vector<driver::BatchJob> jobs;
  for (const char* name : {"squeezenet", "alexnet"}) {
    jobs.push_back({models::build_by_name(name), hw::FpgaDevice::vu9p(),
                    hw::Precision::kInt8, core::LcmmOptions{}, true, true,
                    name});
  }
  auto run_with = [&](int workers) {
    BenchRun run("determinism");
    const auto outcomes = driver::compile_many(jobs, workers);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& r = outcomes[i];
      EXPECT_TRUE(r.ok()) << r.error;
      const Dims dims{{"job", std::to_string(i)}};
      run.add("latency_ms", r.lcmm_sim.total_s * 1e3, "ms",
              Direction::kLowerIsBetter, dims);
      run.add("speedup", r.umm_sim.total_s / r.lcmm_sim.total_s, "x",
              Direction::kHigherIsBetter, dims);
    }
    return run.to_json().dump(2);
  };
  EXPECT_EQ(run_with(1), run_with(8));
}

// BenchRun::load + Harness-style write: a file round-trip with bit-exact
// doubles (dump uses max_digits10).
TEST(BenchRun, FileRoundTrip) {
  const std::string path = "test_bench_json_roundtrip.tmp.json";
  const BenchRun run = make_run(1.0 / 3.0, 1.23456789012345e-7);
  run.write_json(path);
  const BenchRun back = BenchRun::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.metrics().size(), run.metrics().size());
  EXPECT_EQ(back.metrics()[0].value, run.metrics()[0].value);
  EXPECT_EQ(back.metrics()[1].value, run.metrics()[1].value);
}

}  // namespace
}  // namespace lcmm::bench
