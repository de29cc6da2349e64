#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "io/text_format.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "oracle/parse.hpp"
#include "resil/resil.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace lcmm::io {
namespace {

constexpr const char* kTiny = R"(# a tiny test network
graph tiny
input image 3x32x32
stage body
conv c1 image out=16 kernel=3x3 stride=2 pad=1x1
pool p1 c1 type=max kernel=2 stride=2
conv left p1 out=8 kernel=1x1
conv right p1 out=8 kernel=3x3 pad=1x1
concat merged left right
conv tail merged out=16 kernel=1x1
stage head
gpool gap tail type=avg
fc cls gap out=10
)";

TEST(Parse, TinyNetwork) {
  auto g = parse_graph(kTiny);
  EXPECT_EQ(g.name(), "tiny");
  EXPECT_EQ(g.num_conv_layers(), 5);  // c1, left, right, tail, cls
  EXPECT_EQ(g.num_layers(), 7u);
  // Shapes flow: 3x32x32 -> c1 16x16x16 -> pool 16x8x8 -> concat 16x8x8.
  const auto& tail = g.layers()[4];
  EXPECT_EQ(tail.name, "tail");
  EXPECT_EQ(g.input_shape(tail.id), (graph::FeatureShape{16, 8, 8}));
  EXPECT_EQ(tail.stage, "body");
  EXPECT_EQ(g.layers()[6].stage, "head");
}

TEST(Parse, ResidualReference) {
  auto g = parse_graph(
      "graph r\n"
      "input in 16x8x8\n"
      "conv a in out=16 kernel=1x1\n"
      "conv b a out=16 kernel=3x3 pad=1 residual=in\n");
  EXPECT_TRUE(g.layers()[1].has_residual());
}

TEST(Parse, GroupedConv) {
  auto g = parse_graph(
      "graph g\n"
      "input in 32x8x8\n"
      "conv dw in out=32 kernel=3x3 pad=1 groups=32\n");
  EXPECT_EQ(g.layers()[0].conv.groups, 32);
  EXPECT_EQ(g.layer_weight_elems(0), 32 * 9);
}

TEST(Parse, ErrorsCarryLineNumbers) {
  try {
    parse_graph("graph g\ninput in 3x8x8\nconv c in kernel=3x3\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("out="), std::string::npos);
  }
}

TEST(Parse, RejectsUnknownValue) {
  EXPECT_THROW(parse_graph("graph g\nconv c nowhere out=8 kernel=1\n"),
               ParseError);
}

TEST(Parse, RejectsDuplicateNames) {
  EXPECT_THROW(parse_graph("graph g\ninput a 3x8x8\ninput a 3x8x8\n"),
               ParseError);
}

TEST(Parse, RejectsMissingGraphHeader) {
  EXPECT_THROW(parse_graph("input a 3x8x8\n"), ParseError);
  EXPECT_THROW(parse_graph("# only comments\n"), ParseError);
}

TEST(Parse, RejectsRetiredConcatPart) {
  EXPECT_THROW(parse_graph(
                   "graph g\n"
                   "input in 8x8x8\n"
                   "conv a in out=8 kernel=1\n"
                   "conv b in out=8 kernel=1\n"
                   "concat m a b\n"
                   "conv c a out=8 kernel=1\n"),  // 'a' was retired
               ParseError);
}

TEST(Parse, BadShapeAndIntegers) {
  EXPECT_THROW(parse_graph("graph g\ninput a 3x8\n"), ParseError);
  EXPECT_THROW(parse_graph("graph g\ninput a 3x8xqq\n"), ParseError);
  EXPECT_THROW(
      parse_graph("graph g\ninput a 3x8x8\nconv c a out=ten kernel=1\n"),
      ParseError);
}

TEST(RoundTrip, TinyPreservesStructure) {
  auto original = parse_graph(kTiny);
  auto reparsed = parse_graph(serialize_graph(original));
  EXPECT_EQ(reparsed.name(), original.name());
  ASSERT_EQ(reparsed.num_layers(), original.num_layers());
  EXPECT_EQ(reparsed.total_macs(), original.total_macs());
  EXPECT_EQ(reparsed.total_weight_elems(), original.total_weight_elems());
  for (const auto& l : original.layers()) {
    const auto& r = reparsed.layer(l.id);
    EXPECT_EQ(r.name, l.name);
    EXPECT_EQ(r.kind, l.kind);
    EXPECT_EQ(r.stage, l.stage);
    EXPECT_EQ(reparsed.own_output_shape(l.id), original.own_output_shape(l.id));
  }
}

class RoundTripModels : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripModels, SerializeParseSerializeIsStable) {
  auto original = models::build_by_name(GetParam());
  const std::string once = serialize_graph(original);
  auto reparsed = parse_graph(once);
  const std::string twice = serialize_graph(reparsed);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(reparsed.num_layers(), original.num_layers());
  EXPECT_EQ(reparsed.total_macs(), original.total_macs());
  EXPECT_EQ(reparsed.total_weight_elems(), original.total_weight_elems());
  EXPECT_EQ(reparsed.num_conv_layers(), original.num_conv_layers());
  // Liveness-relevant structure: identical consumer counts per value.
  auto census = [](const graph::ComputationGraph& g) {
    std::vector<std::size_t> counts;
    for (graph::ValueId v : g.live_values()) {
      counts.push_back(g.value(v).consumers.size());
    }
    return counts;
  };
  EXPECT_EQ(census(reparsed), census(original));
}

INSTANTIATE_TEST_SUITE_P(AllModels, RoundTripModels,
                         ::testing::Values("resnet50", "resnet152", "googlenet",
                                           "inception_v4", "alexnet", "vgg16",
                                           "mobilenet_v1", "squeezenet"),
                         [](const auto& info) { return std::string(info.param); });

TEST(Golden, AlexNetSerializationIsStable) {
  // Format regression pin: changing the emitter must be a conscious act.
  constexpr const char* kExpected = R"(graph alexnet
input image 3x227x227
stage features
conv conv1 image out=96 kernel=11 stride=4
pool pool1 conv1 type=max kernel=3 stride=2
conv conv2 pool1 out=256 kernel=5 pad=2
pool pool2 conv2 type=max kernel=3 stride=2
conv conv3 pool2 out=384 kernel=3 pad=1
conv conv4 conv3 out=384 kernel=3 pad=1
conv conv5 conv4 out=256 kernel=3 pad=1
pool pool5 conv5 type=max kernel=3 stride=2
stage classifier
conv fc6 pool5 out=4096 kernel=6
conv fc7 fc6 out=4096 kernel=1
conv fc8 fc7 out=1000 kernel=1
)";
  EXPECT_EQ(serialize_graph(models::build_alexnet()), kExpected);
}

TEST(RoundTrip, RandomGraphsSurviveSerializeParse) {
  // Property test over the random-graph generator: any graph the library
  // can build must survive a text round trip structurally unchanged.
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto original = models::random_graph(seed);
    const std::string once = serialize_graph(original);
    const auto reparsed = parse_graph(once);
    EXPECT_EQ(serialize_graph(reparsed), once);
    EXPECT_EQ(reparsed.name(), original.name());
    ASSERT_EQ(reparsed.num_layers(), original.num_layers());
    EXPECT_EQ(reparsed.total_macs(), original.total_macs());
    EXPECT_EQ(reparsed.total_weight_elems(), original.total_weight_elems());
    for (const auto& l : original.layers()) {
      EXPECT_EQ(reparsed.layer(l.id).name, l.name);
      EXPECT_EQ(reparsed.own_output_shape(l.id), original.own_output_shape(l.id));
    }
  }
}

// Malformed inputs; the differential tests below run them too.
const std::vector<std::pair<const char*, const char*>> kMalformed = {
    {"empty input", ""},
    {"comments only", "# nothing\n# here\n"},
    {"header only twice", "graph a\ngraph b\n"},
    {"missing header", "input a 3x8x8\n"},
    {"truncated shape", "graph g\ninput a 3x\n"},
    {"non-numeric dim", "graph g\ninput a 3x8xqq\n"},
    {"int32-overflow dim", "graph g\ninput a 99999999999999999999x1x1\n"},
    {"int64-overflow product",
     "graph g\ninput a 2000000000x2000000000x2000000000\n"
     "conv c a out=8 kernel=1\n"},
    {"unknown op", "graph g\ninput a 3x8x8\nwarp w a out=8\n"},
    {"unknown value ref", "graph g\nconv c nowhere out=8 kernel=1\n"},
    {"duplicate layer name", "graph g\ninput a 3x8x8\ninput a 3x8x8\n"},
    {"missing conv attrs", "graph g\ninput a 3x8x8\nconv c a\n"},
    {"binary junk", "\x01\x02\xff\xfe graph \x00"},
};

TEST(Malformed, CorpusAlwaysRaisesParseErrorNeverCrashes) {
  // Adversarial inputs must surface as typed ParseErrors — never a crash,
  // never a foreign exception type, and overflowing dimension products must
  // not wrap into a plausible-looking graph (resil::checked_mul).
  for (const auto& [label, text] : kMalformed) {
    SCOPED_TRACE(label);
    EXPECT_THROW(parse_graph(text), ParseError);
  }
}

TEST(Malformed, OverflowingDimsCarryTheTypedCode) {
  try {
    parse_graph(
        "graph g\ninput a 2000000000x2000000000x2000000000\n"
        "conv c a out=8 kernel=1\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), resil::Code::kSizeOverflow);
  }
}

TEST(Faults, ParserFaultSiteYieldsTypedParseError) {
  // LCMM_FAULT=io.parse must surface as a ParseError like any other input
  // failure — callers need exactly one exception type to handle.
  const resil::fault::ArmedGuard guard({.site = "io.parse"});
  try {
    parse_graph(kTiny);
    FAIL() << "expected the injected fault";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), resil::Code::kFaultInjected);
  }
}

TEST(Faults, DisarmedParserIsUnaffected) {
  {
    const resil::fault::ArmedGuard guard({.site = "io.parse"});
  }  // guard disarms on scope exit
  EXPECT_NO_THROW(parse_graph(kTiny));
}

TEST(Files, SaveAndLoad) {
  const auto path =
      (std::filesystem::temp_directory_path() / "lcmm_io_test.lcmm").string();
  auto g = lcmm::testing::diamond();
  save_graph_file(g, path);
  auto loaded = load_graph_file(path);
  EXPECT_EQ(loaded.num_layers(), g.num_layers());
  std::remove(path.c_str());
  EXPECT_THROW(load_graph_file("/nonexistent/x.lcmm"), std::runtime_error);
}

TEST(Parse, RepeatedKeyKeepsItsLastValue) {
  const auto g = parse_graph(
      "graph g\ninput a 3x8x8\nconv c a out=8 out=16 kernel=1 kernel=3 pad=1\n");
  EXPECT_EQ(g.own_output_shape(0).channels, 16);
  EXPECT_EQ(g.layers()[0].conv.kernel_h, 3);
}

TEST(Parse, LinesCountAsGetlineCountsThem) {
  // An unterminated last line is a line; a trailing newline adds none.
  auto line_of = [](const std::string& text) {
    try {
      parse_graph(text);
    } catch (const ParseError& e) {
      return e.line();
    }
    return -1;
  };
  EXPECT_EQ(line_of("graph g\nwarp"), 2);
  EXPECT_EQ(line_of("graph g\nwarp\n"), 2);
  EXPECT_EQ(line_of("# one\n# two"), 2);
  EXPECT_EQ(line_of("# one\n# two\n"), 2);
  EXPECT_EQ(line_of("# one\n\n"), 2);
  EXPECT_EQ(line_of(""), 0);
  EXPECT_EQ(line_of("\n"), 1);
}

TEST(Parse, SpanCountsLinesLayersAndBytes) {
  obs::StatsSession session;
  parse_graph(kTiny);
  const obs::CompileStats& stats = session.stats();
  EXPECT_EQ(stats.span_count("parse"), 1);
  EXPECT_EQ(stats.counter("parse.lines"), 13);
  EXPECT_EQ(stats.counter("parse.layers"), 7);
  EXPECT_EQ(stats.counter("parse.bytes"),
            static_cast<std::int64_t>(std::string_view(kTiny).size()));
}

// ---- differential: the view-based parser against the string-copying one
// it replaced (oracle/parse.hpp) ------------------------------------------

/// What a parse gives: the serialized graph, or the error's type, code,
/// line and message.
template <typename Parse>
std::string outcome(Parse parse, std::string_view text) {
  try {
    return "graph:\n" + serialize_graph(parse(text));
  } catch (const ParseError& e) {
    return "ParseError code " + std::to_string(static_cast<int>(e.code())) +
           " line " + std::to_string(e.line()) + ": " + e.what();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
}

void expect_same_parse(std::string_view text, const std::string& label) {
  EXPECT_EQ(outcome(parse_graph, text),
            outcome(oracle::string_parse_graph, text))
      << label;
}

std::vector<std::string> zoo_texts() {
  std::vector<std::string> texts;
  for (const std::string& name : models::model_names()) {
    texts.push_back(serialize_graph(models::build_by_name(name)));
  }
  return texts;
}

TEST(ParseDifferential, ZooRandomAndExampleGraphs) {
  for (const std::string& text : zoo_texts()) expect_same_parse(text, text);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    expect_same_parse(serialize_graph(models::random_graph(seed)),
                      "random seed " + std::to_string(seed));
  }
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(LCMM_SOURCE_DIR) / "examples" / "graphs")) {
    if (entry.path().extension() != ".lcmm") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    expect_same_parse(text.str(), entry.path().string());
    ++files;
  }
  EXPECT_GE(files, 2);
}

TEST(ParseDifferential, MalformedCorpus) {
  for (const auto& [label, text] : kMalformed) expect_same_parse(text, label);
}

TEST(ParseDifferential, EdgeTokens) {
  using namespace std::string_literals;
  const std::vector<std::string> tokens = {
      "8",   "+8",          "08",         "-0",          "-8",
      "2147483647",         "2147483648", "-2147483648", "-2147483649",
      "999999999",          "99999999999", "8\v",        "\v8",
      "\f8", "1e3",        "0x10",       "",            "-",
      "+",   "8x",          "x8",         "8x8x8",       "--8",
      " 8"};
  for (const std::string& t : tokens) {
    const std::string label = "token '" + t + "'";
    expect_same_parse("graph g\ninput a 3x8x8\nconv c a out=" + t +
                          " kernel=1\n",
                      label + " as out=");
    expect_same_parse("graph g\ninput a 3x8x8\nconv c a out=8 kernel=" + t +
                          "\n",
                      label + " as kernel=");
    expect_same_parse("graph g\ninput a " + t + "x8x8\n", label + " as a dim");
    expect_same_parse("graph g\ninput a 3x8x8\npool p a kernel=" + t + "\n",
                      label + " as a pool kernel");
  }
  const std::string base = "graph g\ninput a 3x8x8\n";
  const std::vector<std::pair<std::string, std::string>> texts = {
      {"empty value", base + "conv c a out= kernel=1\n"},
      {"repeated key", base + "conv c a out=8 out=16 kernel=1\n"},
      {"repeated residual", base + "conv c a out=3 kernel=1 residual=zz "
                                   "residual=a\n"},
      {"empty key", base + "conv c a =8 out=8 kernel=1\n"},
      {"CRLF", "graph g\r\ninput a 3x8x8\r\nconv c a out=8 kernel=1\r\n"},
      {"CRLF error", "graph g\r\ninput a 3x8x8\r\nwarp\r\n"},
      {"unterminated last line", base + "conv c a out=8 kernel=1"},
      {"unterminated error", base + "conv c a out=8"},
      {"blank lines then error", base + "\n\n  \t\n warp"},
      {"hash inside a token", base + "conv c a out=8#9 kernel=1\n"},
      {"hash ends a name", base + "conv c#x a out=8 kernel=1\n"},
      {"NUL in a token", base + "conv c a out=8\0 kernel=1\n"s},
      {"NUL line", base + "\0\n"s},
      {"tabs", "graph\tg\ninput\ta\t3x8x8\n"},
      {"flags", base + "pool p a kernel=2 ceil ceil stride=2\n"},
      {"fc on a map", base + "fc f a out=10\n"},
      {"fc unknown input no out", base + "fc f zz\n"},
      {"bad pool type", base + "pool p a type=min kernel=2\n"},
      {"gpool", base + "gpool p a\n"},
      {"short statement", base + "conv c\n"},
      {"stage usage", base + "stage\n"},
      {"graph usage", "graph\n"},
      {"graph twice", "graph g\ngraph h\n"},
      {"statement before graph", "\n\ninput a 3x8x8\n"},
      {"concat one part", base + "conv b a out=8 kernel=1\nconcat m b\n"},
  };
  for (const auto& [label, text] : texts) expect_same_parse(text, label);
}

TEST(ParseDifferential, SeededCharacterMutationsOfZooTexts) {
  // Delete, duplicate or replace one character of a zoo text.
  constexpr char kAlphabet[] = " \t\r\n#=x-+09a\v\f\0";
  util::Rng rng(32);
  for (const std::string& text : zoo_texts()) {
    for (int i = 0; i < 60; ++i) {
      std::string mutated = text;
      const std::size_t at = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0:
          mutated.erase(at, 1);
          break;
        case 1:
          mutated.insert(at, 1, mutated[at]);
          break;
        default:
          mutated[at] = kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
          break;
      }
      expect_same_parse(mutated, "mutation " + std::to_string(i) + " at " +
                                     std::to_string(at) + " of " +
                                     text.substr(0, text.find('\n')));
    }
  }
}

TEST(ParseDifferential, ZooTextsTruncatedAtEveryLine) {
  // Each prefix ends either just before a '\n' (an unterminated last line)
  // or just after it.
  for (const std::string& text : zoo_texts()) {
    for (std::size_t nl = text.find('\n'); nl != std::string::npos;
         nl = text.find('\n', nl + 1)) {
      expect_same_parse(std::string_view(text).substr(0, nl), "before");
      expect_same_parse(std::string_view(text).substr(0, nl + 1), "after");
    }
  }
}

}  // namespace
}  // namespace lcmm::io
