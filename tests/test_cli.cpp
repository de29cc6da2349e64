#include <gtest/gtest.h>

#include "cli/options.hpp"

namespace lcmm::cli {
namespace {

TEST(Cli, ModelAndDefaults) {
  const Options opt = parse_cli({"--model", "googlenet"});
  EXPECT_EQ(opt.model, "googlenet");
  EXPECT_EQ(opt.precision, hw::Precision::kInt16);
  EXPECT_EQ(opt.device, "vu9p");
  EXPECT_EQ(opt.design, DesignChoice::kBoth);
  EXPECT_EQ(opt.format, OutputFormat::kText);
  EXPECT_TRUE(opt.lcmm.feature_reuse);
  EXPECT_TRUE(opt.lcmm.weight_prefetch);
}

TEST(Cli, EqualsSyntax) {
  const Options opt =
      parse_cli({"--model=resnet152", "--precision=8", "--format=json"});
  EXPECT_EQ(opt.model, "resnet152");
  EXPECT_EQ(opt.precision, hw::Precision::kInt8);
  EXPECT_EQ(opt.format, OutputFormat::kJson);
}

TEST(Cli, AllPrecisions) {
  EXPECT_EQ(parse_cli({"--model", "m", "--precision", "8"}).precision,
            hw::Precision::kInt8);
  EXPECT_EQ(parse_cli({"--model", "m", "--precision", "16"}).precision,
            hw::Precision::kInt16);
  EXPECT_EQ(parse_cli({"--model", "m", "--precision", "32"}).precision,
            hw::Precision::kFp32);
  EXPECT_THROW(parse_cli({"--model", "m", "--precision", "4"}), CliError);
}

TEST(Cli, PassToggles) {
  const Options opt = parse_cli({"--model", "m", "--no-feature-reuse",
                                 "--no-prefetch", "--no-splitting",
                                 "--no-promotion", "--no-fallback"});
  EXPECT_FALSE(opt.lcmm.feature_reuse);
  EXPECT_FALSE(opt.lcmm.weight_prefetch);
  EXPECT_FALSE(opt.lcmm.buffer_splitting);
  EXPECT_FALSE(opt.lcmm.residency_promotion);
  EXPECT_FALSE(opt.lcmm.allow_fallback_to_umm);
}

TEST(Cli, NumericOptions) {
  const Options opt = parse_cli({"--model", "m", "--capacity-fraction", "0.5"});
  EXPECT_DOUBLE_EQ(opt.lcmm.sram_capacity_fraction, 0.5);
  EXPECT_THROW(parse_cli({"--model", "m", "--capacity-fraction", "0.5x"}),
               CliError);
}

TEST(Cli, CheckFlags) {
  const Options plain = parse_cli({"--model", "m"});
  EXPECT_FALSE(plain.check);
  EXPECT_TRUE(plain.check_report_path.empty());

  const Options strict = parse_cli({"--model", "m", "--check=strict"});
  EXPECT_TRUE(strict.check);
  EXPECT_TRUE(strict.check_strict);
  EXPECT_THROW(parse_cli({"--model", "m", "--check=loud"}), CliError);

  // --check-report implies --check; the format follows the extension.
  const Options report =
      parse_cli({"--model", "m", "--check-report", "out.sarif"});
  EXPECT_TRUE(report.check);
  EXPECT_FALSE(report.check_strict);
  EXPECT_EQ(report.check_report_path, "out.sarif");
  EXPECT_EQ(parse_cli({"--model", "m", "--check-report=r.json"})
                .check_report_path,
            "r.json");
  EXPECT_THROW(parse_cli({"--model", "m", "--check-report"}), CliError);
}

TEST(Cli, RequiresExactlyOneInput) {
  EXPECT_THROW(parse_cli({}), CliError);
  EXPECT_THROW(parse_cli({"--format", "json"}), CliError);
  EXPECT_THROW(parse_cli({"--model", "a", "--graph", "b.lcmm"}), CliError);
  EXPECT_NO_THROW(parse_cli({"--graph", "b.lcmm"}));
}

TEST(Cli, HelpShortCircuitsValidation) {
  EXPECT_TRUE(parse_cli({"--help"}).show_help);
  EXPECT_TRUE(parse_cli({"-h"}).show_help);
  EXPECT_TRUE(parse_cli({"--list-rules"}).list_rules);
  EXPECT_FALSE(parse_cli({"--model", "m"}).list_rules);
}

TEST(Cli, UnknownOptionRejected) {
  EXPECT_THROW(parse_cli({"--model", "m", "--frobnicate"}), CliError);
  // DNNK is the only allocator the compiler runs; the greedy and exact
  // references are library functions, not a flag.
  EXPECT_THROW(parse_cli({"--model", "m", "--allocator", "dnnk"}), CliError);
  // The tool compiles one job on its calling thread, and a job runs once:
  // there are no worker or job-retry flags.
  EXPECT_THROW(parse_cli({"--model", "m", "--jobs", "4"}), CliError);
  EXPECT_THROW(parse_cli({"--model", "m", "--retries", "1"}), CliError);
}

TEST(Cli, MissingValueRejected) {
  EXPECT_THROW(parse_cli({"--model"}), CliError);
  EXPECT_THROW(parse_cli({"--model", "m", "--precision"}), CliError);
}

TEST(Cli, DeviceValidation) {
  EXPECT_NO_THROW(parse_cli({"--model", "m", "--device", "zu9eg"}));
  EXPECT_THROW(parse_cli({"--model", "m", "--device", "stratix"}), CliError);
  EXPECT_EQ(resolve_device("vu9p").name, "xcvu9p");
  EXPECT_EQ(resolve_device("zu9eg").name, "xczu9eg");
}

TEST(Cli, UsageMentionsEveryModel) {
  const std::string text = usage();
  EXPECT_NE(text.find("googlenet"), std::string::npos);
  EXPECT_NE(text.find("mobilenet_v1"), std::string::npos);
  EXPECT_NE(text.find("--precision"), std::string::npos);
  EXPECT_NE(text.find("--check-report"), std::string::npos);
  EXPECT_NE(text.find("--list-rules"), std::string::npos);
}

}  // namespace
}  // namespace lcmm::cli
