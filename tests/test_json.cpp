#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "models/models.hpp"
#include "sim/report.hpp"
#include "util/json.hpp"

namespace lcmm::util {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-1.5).dump(), "-1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectAndArrayCompact) {
  Json j = Json::object();
  j["b"] = 2;
  j["a"] = Json::array();
  j["a"].push(1);
  j["a"].push("x");
  // Keys are sorted (std::map) for deterministic output.
  EXPECT_EQ(j.dump(-1), "{\"a\":[1,\"x\"],\"b\":2}");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j["a"].size(), 2u);
}

TEST(Json, PrettyIndentation) {
  Json j = Json::object();
  j["k"] = Json::array();
  j["k"].push(1);
  EXPECT_EQ(j.dump(2), "{\n  \"k\": [\n    1\n  ]\n}");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(), "{}");
  EXPECT_EQ(Json::array().dump(-1), "[]");
}

TEST(Json, TypeErrorsThrow) {
  Json scalar(1);
  EXPECT_THROW(scalar["x"] = 1, std::logic_error);
  EXPECT_THROW(scalar.push(1), std::logic_error);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(1), std::logic_error);
}

TEST(Json, NestedStructures) {
  Json root = Json::array();
  for (int i = 0; i < 3; ++i) {
    Json item = Json::object();
    item["i"] = i;
    root.push(std::move(item));
  }
  EXPECT_EQ(root.dump(-1), "[{\"i\":0},{\"i\":1},{\"i\":2}]");
}

TEST(PlanJson, ContainsExpectedSections) {
  auto g = models::build_squeezenet();
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  const auto plan = compiler.compile(g);
  const auto sim_result = sim::simulate(g, plan);
  const Json j = sim::plan_to_json(g, plan, sim_result,
                                   sim::make_report(g, plan, sim_result));
  const std::string s = j.dump(-1);
  EXPECT_NE(s.find("\"report\""), std::string::npos);
  EXPECT_NE(s.find("\"virtual_buffers\""), std::string::npos);
  EXPECT_NE(s.find("\"resident_weights\""), std::string::npos);
  EXPECT_NE(s.find("\"layers\""), std::string::npos);
  EXPECT_NE(s.find("\"latency_ms\""), std::string::npos);
  EXPECT_NE(s.find("squeezenet"), std::string::npos);
}

}  // namespace
}  // namespace lcmm::util
