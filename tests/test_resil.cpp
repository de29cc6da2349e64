// Tests for lcmm::resil — the typed error taxonomy, overflow-checked size
// arithmetic, the deterministic fault-injection registry, and the retry and
// UMM floor in LcmmCompiler::compile. The FaultMatrix test at the
// bottom is env-driven (LCMM_FAULT) and is what the CI fault-injection
// matrix job runs per registered site.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "core/lcmm.hpp"
#include "driver/batch.hpp"
#include "hw/dse.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "resil/resil.hpp"
#include "test_graphs.hpp"

namespace lcmm::resil {
namespace {

using core::AllocationPlan;
using core::LcmmCompiler;
using core::LcmmOptions;

// ---------------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------------

TEST(ResilError, StableCodeIds) {
  EXPECT_EQ(code_id(Code::kNoFeasibleDesign), "LCMM-E611");
  EXPECT_EQ(code_id(Code::kTileBuffersDontFit), "LCMM-E612");
  EXPECT_EQ(code_id(Code::kSizeOverflow), "LCMM-E614");
  EXPECT_EQ(code_id(Code::kBadOptions), "LCMM-E651");
  EXPECT_EQ(code_id(Code::kParseError), "LCMM-E701");
  EXPECT_EQ(code_id(Code::kFaultInjected), "LCMM-E801");
  EXPECT_EQ(code_id(Code::kInternal), "LCMM-E899");
}

TEST(ResilError, CodeTableIsSortedUniqueAndNamed) {
  const std::vector<Code>& codes = all_codes();
  ASSERT_FALSE(codes.empty());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(static_cast<int>(codes[i - 1]), static_cast<int>(codes[i]));
    }
    EXPECT_STRNE(code_name(codes[i]), "");
    EXPECT_STRNE(code_summary(codes[i]), "");
  }
}

TEST(ResilError, CompileErrorCarriesTypedPayload) {
  const CompileError e(Code::kTileBuffersDontFit, "pass.place",
                       "tile buffers do not fit on the device", "resnet50");
  EXPECT_EQ(e.code(), Code::kTileBuffersDontFit);
  EXPECT_EQ(e.pass(), "pass.place");
  EXPECT_EQ(e.entity(), "resnet50");
  const std::string what = e.what();
  EXPECT_EQ(what,
            "[LCMM-E612] pass.place: tile buffers do not fit on the device "
            "(entity 'resnet50')");
  // compile() catches it as a runtime failure; batch code recovers the
  // payload from a plain std::exception reference.
  const std::exception& base = e;
  const ErrorInfo info = describe(base);
  EXPECT_EQ(info.code, Code::kTileBuffersDontFit);
  EXPECT_EQ(info.pass, "pass.place");
}

TEST(ResilError, OptionErrorIsInvalidArgument) {
  // Contract: the seed code threw std::invalid_argument for bad options;
  // OptionError must keep those call sites and tests working.
  try {
    throw OptionError(Code::kBadOptions, "core.options", "Lcmm: bad options");
  } catch (const std::invalid_argument& e) {
    const ErrorInfo info = describe(e);
    EXPECT_EQ(info.code, Code::kBadOptions);
    EXPECT_EQ(info.pass, "core.options");
  }
}

TEST(ResilError, NonPositiveGranularityIsRejectedAtConstruction) {
  // dnnk_allocate divides the capacity by the DNNK granularity, so the
  // compiler refuses a non-positive one as a caller contract violation
  // before any pass runs.
  for (std::int64_t granularity : {std::int64_t{0}, std::int64_t{-1}}) {
    LcmmOptions options;
    options.alloc.granularity_bytes = granularity;
    try {
      const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                                  options);
      ADD_FAILURE() << "granularity " << granularity << " accepted";
    } catch (const OptionError& e) {
      EXPECT_EQ(e.code(), Code::kBadOptions);
      EXPECT_EQ(e.pass(), "core.options");
    }
  }
}

TEST(ResilError, InvalidDeviceIsRejectedAtConstruction) {
  // A NaN or infinite DDR bandwidth makes every stream term NaN or
  // infinite, so the compile would ship compute-only latencies; a negative
  // resource count would surface as "no feasible design". Both
  // constructors, and so a batch job, refuse such a device as bad options.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, hw::FpgaDevice>> bad;
  for (double bandwidth : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    hw::FpgaDevice device = hw::FpgaDevice::vu9p();
    device.ddr_peak_gbps_per_bank = bandwidth;
    bad.emplace_back("bandwidth " + std::to_string(bandwidth), device);
  }
  hw::FpgaDevice negative = hw::FpgaDevice::vu9p();
  negative.dsp_total = -1;
  bad.emplace_back("dsp_total -1", negative);

  const auto expect_bad_options = [](const auto& construct, const std::string& what) {
    try {
      construct();
      ADD_FAILURE() << what << " accepted";
    } catch (const OptionError& e) {
      EXPECT_EQ(e.code(), Code::kBadOptions) << what;
      EXPECT_EQ(e.pass(), "hw.device") << what;
    }
  };
  const auto g = models::build_by_name("googlenet");
  for (const auto& [label, device] : bad) {
    expect_bad_options(
        [&] { const LcmmCompiler compiler(device, hw::Precision::kInt16); },
        "LcmmCompiler, " + label);
    expect_bad_options([&] { const hw::Dse dse(device, hw::Precision::kInt16); },
                       "Dse, " + label);
    const auto outcomes = driver::compile_many(
        {{.graph = g, .device = device, .precision = hw::Precision::kInt16}}, 1);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok()) << label;
    EXPECT_EQ(outcomes[0].error_info.code, Code::kBadOptions) << label;
  }
}

TEST(ResilError, DescribeWrapsForeignExceptionsAsInternal) {
  const std::runtime_error foreign("unexpected");
  const ErrorInfo info = describe(foreign);
  EXPECT_EQ(info.code, Code::kInternal);
  EXPECT_EQ(info.message, "unexpected");
}

TEST(ResilError, TransientClassification) {
  EXPECT_TRUE(is_transient(Code::kFaultInjected));
  EXPECT_TRUE(is_transient(Code::kIoError));
  EXPECT_FALSE(is_transient(Code::kNoFeasibleDesign));
  EXPECT_FALSE(is_transient(Code::kTileBuffersDontFit));
  EXPECT_FALSE(is_transient(Code::kBadOptions));
}

TEST(ResilError, RungNamesAreStable) {
  EXPECT_STREQ(rung_name(Rung::kFullLcmm), "full-lcmm");
  EXPECT_STREQ(rung_name(Rung::kUmm), "umm");
}

// ---------------------------------------------------------------------------
// Overflow-checked size arithmetic.
// ---------------------------------------------------------------------------

TEST(ResilChecked, MulAndAddPassThroughInRange) {
  EXPECT_EQ(checked_mul(1 << 20, 1 << 20, "t"), std::int64_t{1} << 40);
  EXPECT_EQ(checked_add(std::numeric_limits<std::int64_t>::max() - 1, 1, "t"),
            std::numeric_limits<std::int64_t>::max());
}

TEST(ResilChecked, OverflowRaisesTypedError) {
  constexpr std::int64_t kBig = std::numeric_limits<std::int64_t>::max() / 2;
  try {
    checked_mul(kBig, 3, "test product");
    FAIL() << "expected kSizeOverflow";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.code(), Code::kSizeOverflow);
    EXPECT_NE(std::string(e.what()).find("test product"), std::string::npos);
  }
  EXPECT_THROW(
      checked_add(std::numeric_limits<std::int64_t>::max(), 1, "test sum"),
      CompileError);
}

TEST(ResilChecked, AdversarialShapeElemsOverflowIsTyped) {
  // Dims a malicious .lcmm file can request: the product wraps int64.
  const graph::FeatureShape huge{2000000000, 2000000000, 2000000000};
  try {
    (void)huge.elems();
    FAIL() << "expected kSizeOverflow";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.code(), Code::kSizeOverflow);
  }
}

// ---------------------------------------------------------------------------
// Fault-injection registry.
// ---------------------------------------------------------------------------

TEST(ResilFault, RegistryListsTheDocumentedSites) {
  const auto sites = fault::sites();
  EXPECT_EQ(sites.size(), 8u);
  for (const char* site : {"io.parse", "dse.explore", "pass.liveness",
                           "pass.coloring", "pass.prefetch", "pass.dnnk",
                           "pass.splitting", "pass.place"}) {
    EXPECT_TRUE(fault::is_site(site)) << site;
  }
  EXPECT_FALSE(fault::is_site("pass.unknown"));
}

TEST(ResilFault, ArmingAnUnknownSiteIsAContractViolation) {
  EXPECT_THROW(fault::arm({.site = "pass.unknown"}), OptionError);
}

TEST(ResilFault, ArmedGuardDisarmsOnScopeExit) {
  {
    const fault::ArmedGuard guard({.site = "pass.dnnk"});
    ASSERT_TRUE(fault::armed().has_value());
    EXPECT_EQ(fault::armed()->site, "pass.dnnk");
  }
  EXPECT_FALSE(fault::armed().has_value());
}

TEST(ResilFault, HitIsANoOpWithoutAnActiveScope) {
  const fault::ArmedGuard guard({.site = "pass.dnnk"});
  // No fault::Scope on this thread: armed faults stay dormant, so library
  // code outside a top-level operation never throws.
  EXPECT_NO_THROW(fault::hit("pass.dnnk"));
}

TEST(ResilFault, OneShotFiresExactlyOncePerScope) {
  const fault::ArmedGuard guard({.site = "pass.dnnk", .nth = 1, .fires = 1});
  const fault::Scope scope;
  EXPECT_NO_THROW(fault::hit("pass.place"));  // wrong site
  try {
    fault::hit("pass.dnnk");
    FAIL() << "expected the injected fault";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.code(), Code::kFaultInjected);
    EXPECT_EQ(e.pass(), "pass.dnnk");
  }
  EXPECT_NO_THROW(fault::hit("pass.dnnk"));  // budget consumed
}

TEST(ResilFault, NthSkipsEarlierHitsAndStickyNeverStops) {
  {
    const fault::ArmedGuard guard({.site = "io.parse", .nth = 3, .fires = 1});
    const fault::Scope scope;
    EXPECT_NO_THROW(fault::hit("io.parse"));
    EXPECT_NO_THROW(fault::hit("io.parse"));
    EXPECT_THROW(fault::hit("io.parse"), CompileError);
    EXPECT_NO_THROW(fault::hit("io.parse"));
  }
  {
    const fault::ArmedGuard guard({.site = "io.parse", .nth = 2, .fires = -1});
    const fault::Scope scope;
    EXPECT_NO_THROW(fault::hit("io.parse"));
    EXPECT_THROW(fault::hit("io.parse"), CompileError);
    EXPECT_THROW(fault::hit("io.parse"), CompileError);
  }
}

TEST(ResilFault, EachTopLevelScopeGetsAFreshBudget) {
  const fault::ArmedGuard guard({.site = "pass.dnnk"});
  for (int round = 0; round < 2; ++round) {
    const fault::Scope scope;
    EXPECT_THROW(fault::hit("pass.dnnk"), CompileError) << round;
    EXPECT_NO_THROW(fault::hit("pass.dnnk")) << round;
  }
}

TEST(ResilFault, NestedScopesShareTheOuterBudget) {
  // compile() opens a Scope; compile_umm inside it opens another. The inner
  // one must not reset the budget, or a one-shot fault could fire twice in
  // one operation (and differently across worker counts).
  const fault::ArmedGuard guard({.site = "pass.dnnk"});
  const fault::Scope outer;
  EXPECT_THROW(fault::hit("pass.dnnk"), CompileError);
  {
    const fault::Scope inner;
    EXPECT_NO_THROW(fault::hit("pass.dnnk"));
  }
}

// ---------------------------------------------------------------------------
// Retry and UMM floor.
// ---------------------------------------------------------------------------

void expect_check_clean(const graph::ComputationGraph& g,
                        const AllocationPlan& plan, const LcmmOptions& options) {
  const check::CheckReport report =
      check::run_checks(g, plan, check::CheckOptions::from(options));
  EXPECT_FALSE(report.fails(false))
      << "rung " << rung_name(plan.rung) << ": " << report.num_errors()
      << " checker errors";
}

TEST(ResilLadder, OneShotFaultsLeaveThePlanUnchanged) {
  // A single injected failure anywhere on the compile path costs one retry
  // on the same inputs and nothing else: the plan, its UMM baseline and
  // the design-space work all equal a fault-free compile's.
  const auto g = models::build_by_name("googlenet");
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  struct Run {
    AllocationPlan plan, umm;
    std::int64_t cost_evals = 0;
  };
  const auto run = [&](const char* site) {
    std::optional<fault::ArmedGuard> guard;
    if (site) guard.emplace(fault::Config{.site = site});
    obs::StatsSession session;
    Run r;
    r.plan = compiler.compile(g, &r.umm);
    r.cost_evals = session.stats().counter("dse.cost_evals");
    return r;
  };
  const Run clean = run(nullptr);
  ASSERT_EQ(clean.plan.rung, Rung::kFullLcmm);
  ASSERT_GT(clean.cost_evals, 0);
  for (const char* site : {"dse.explore", "pass.liveness", "pass.coloring",
                           "pass.prefetch", "pass.dnnk", "pass.splitting",
                           "pass.place"}) {
    const Run r = run(site);
    EXPECT_EQ(r.plan.rung, Rung::kFullLcmm) << site;
    EXPECT_TRUE(r.plan.degrade_reason.empty()) << site;
    EXPECT_EQ(r.plan.design.array, clean.plan.design.array) << site;
    EXPECT_EQ(r.plan.design.tile, clean.plan.design.tile) << site;
    EXPECT_EQ(r.plan.design.freq_mhz, clean.plan.design.freq_mhz) << site;
    EXPECT_EQ(r.plan.est_latency_s, clean.plan.est_latency_s) << site;
    EXPECT_EQ(r.plan.buffer_on_chip, clean.plan.buffer_on_chip) << site;
    EXPECT_EQ(r.plan.resident_weights, clean.plan.resident_weights) << site;
    EXPECT_EQ(r.umm.design.array, clean.umm.design.array) << site;
    EXPECT_EQ(r.umm.design.tile, clean.umm.design.tile) << site;
    EXPECT_EQ(r.umm.design.freq_mhz, clean.umm.design.freq_mhz) << site;
    EXPECT_EQ(r.umm.est_latency_s, clean.umm.est_latency_s) << site;
    EXPECT_EQ(r.cost_evals, clean.cost_evals) << site;
  }
}

TEST(ResilLadder, OneShotFaultAtEveryCompileSiteDegradesOneRung) {
  // A single injected failure anywhere on the compile path costs exactly
  // one retry: the fault fires once, the budget is spent, and the second
  // attempt completes full-lcmm with a check-clean plan.
  const auto g = lcmm::testing::chain3();
  const LcmmOptions base;
  for (const char* site : {"dse.explore", "pass.liveness", "pass.coloring",
                           "pass.prefetch", "pass.dnnk", "pass.splitting",
                           "pass.place"}) {
    const fault::ArmedGuard guard({.site = site});
    const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                                base);
    obs::StatsSession session;
    const AllocationPlan plan = compiler.compile(g);
    EXPECT_EQ(plan.rung, Rung::kFullLcmm) << site;
    EXPECT_TRUE(plan.degrade_reason.empty()) << site;
    EXPECT_EQ(session.stats().counter("retries"), 1) << site;
    EXPECT_EQ(session.stats().counter("ladder_degraded"), 0) << site;
    expect_check_clean(g, plan, base);
  }
}

TEST(ResilLadder, DegradedRungsShareTheRequestsDesignSpace) {
  // The retry and the UMM floor both pick their designs from the table the
  // request already built: neither a one-shot fault (retried) nor a sticky
  // one (floor) costs a second DSE evaluation.
  const auto g = models::build_by_name("googlenet");
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto cost_evals = [&](const char* site, int fires, Rung expected) {
    std::optional<fault::ArmedGuard> guard;
    if (site) guard.emplace(fault::Config{.site = site, .nth = 1, .fires = fires});
    obs::StatsSession session;
    const AllocationPlan plan = compiler.compile(g);
    EXPECT_EQ(plan.rung, expected) << (site ? site : "clean") << " " << fires;
    return session.stats().counter("dse.cost_evals");
  };
  const std::int64_t clean = cost_evals(nullptr, 0, Rung::kFullLcmm);
  EXPECT_GT(clean, 0);
  EXPECT_EQ(cost_evals("pass.dnnk", 1, Rung::kFullLcmm), clean);
  EXPECT_EQ(cost_evals("pass.dnnk", -1, Rung::kUmm), clean);
}

TEST(ResilLadder, InfeasibleDeviceBuildsTheDesignSpaceTwice) {
  // A deterministic E611 is not retried: the pipeline builds the design
  // space once, the UMM floor once more, and the error propagates.
  hw::FpgaDevice no_dsps = hw::FpgaDevice::vu9p();
  no_dsps.dsp_total = 0;
  const auto g = lcmm::testing::chain3();
  const LcmmCompiler compiler(no_dsps, hw::Precision::kInt16);
  obs::StatsSession session;
  try {
    compiler.compile(g);
    FAIL() << "expected no feasible design";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.code(), Code::kNoFeasibleDesign);
  }
  EXPECT_EQ(session.stats().span_count("dse"), 2);
}

TEST(ResilLadder, SitesOffTheCompilePathLeaveThePipelineAlone) {
  const auto g = lcmm::testing::chain3();
  const fault::ArmedGuard guard({.site = "io.parse"});
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const AllocationPlan plan = compiler.compile(g);
  EXPECT_EQ(plan.rung, Rung::kFullLcmm);
  EXPECT_TRUE(plan.degrade_reason.empty());
}

TEST(ResilLadder, NoBenefitFallbackIsNotADegradation) {
  // vgg16 is compute-bound: the pipeline completes and ships the uniform
  // design on merit, which keeps the full-lcmm rung.
  const auto g = models::build_by_name("vgg16");
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  AllocationPlan umm;
  const AllocationPlan plan = compiler.compile(g, &umm);
  EXPECT_EQ(plan.design.tile, umm.design.tile);
  EXPECT_EQ(plan.est_latency_s, umm.est_latency_s);
  EXPECT_FALSE(plan.is_umm);
  EXPECT_EQ(plan.rung, Rung::kFullLcmm);
  EXPECT_TRUE(plan.degrade_reason.empty());
}

TEST(ResilLadder, StickyGatedFaultsLandOnTheRungThatDisablesThem) {
  // A persistent failure in a gated pass outlasts the retry, and no rung
  // turns the pass off any more: prefetch and liveness faults both ship
  // the UMM floor, naming the site.
  const auto g = lcmm::testing::chain3();
  const LcmmOptions base;
  for (const char* site : {"pass.prefetch", "pass.liveness"}) {
    const fault::ArmedGuard guard({.site = site, .nth = 1, .fires = -1});
    const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                                base);
    const AllocationPlan plan = compiler.compile(g);
    EXPECT_EQ(plan.rung, Rung::kUmm) << site;
    EXPECT_EQ(plan.degrade_reason, std::string("LCMM-E801@") + site) << site;
    expect_check_clean(g, plan, base);
  }
}

TEST(ResilLadder, StickyUngatedFaultFallsToTheUmmFloor) {
  // pass.dnnk is hit on every LCMM attempt but not on the UMM baseline
  // path: the compile ships UMM, flagged via rung (not is_umm, which
  // mirrors the no-benefit fallback convention).
  const auto g = lcmm::testing::chain3();
  const LcmmOptions base;
  const fault::ArmedGuard guard({.site = "pass.dnnk", .nth = 1, .fires = -1});
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                              base);
  const AllocationPlan plan = compiler.compile(g);
  EXPECT_EQ(plan.rung, Rung::kUmm);
  EXPECT_FALSE(plan.is_umm);
  EXPECT_EQ(plan.degrade_reason, "LCMM-E801@pass.dnnk");
  expect_check_clean(g, plan, base);
}

TEST(ResilLadder, StickyFaultOnASharedSiteDefeatsEvenTheFloor) {
  // pass.place runs on the UMM path too; a persistent failure there leaves
  // no floor to retreat to, and the error propagates typed.
  const auto g = lcmm::testing::chain3();
  const fault::ArmedGuard guard({.site = "pass.place", .nth = 1, .fires = -1});
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  try {
    compiler.compile(g);
    FAIL() << "expected the fault to propagate";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.code(), Code::kFaultInjected);
    EXPECT_EQ(e.pass(), "pass.place");
  }
}

TEST(ResilLadder, StrictModePropagatesInsteadOfDegrading) {
  const auto g = lcmm::testing::chain3();
  LcmmOptions opts;
  opts.strict = true;
  const fault::ArmedGuard guard({.site = "pass.dnnk"});
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                              opts);
  try {
    compiler.compile(g);
    FAIL() << "expected --strict to fail hard";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.code(), Code::kFaultInjected);
  }
}

TEST(ResilLadder, SharedUmmBaselineEqualsCompileUmmOnEveryRung) {
  // compile(g, &umm) hands back the baseline it built for the fallback and
  // the floor; whichever rung the LCMM plan lands on, that baseline is the
  // job's own compile_umm(g).
  const auto g = models::build_by_name("squeezenet");
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const AllocationPlan reference = compiler.compile_umm(g);
  const struct {
    const char* site;
    std::int64_t fires;
    Rung rung;
  } cases[] = {
      {nullptr, 0, Rung::kFullLcmm},
      {"pass.dnnk", 1, Rung::kFullLcmm},
      {"pass.place", 1, Rung::kFullLcmm},
      {"pass.prefetch", -1, Rung::kUmm},
      {"pass.dnnk", -1, Rung::kUmm},
  };
  for (const auto& c : cases) {
    const std::string what = c.site ? std::string(c.site) : "no fault";
    std::optional<fault::ArmedGuard> guard;
    if (c.site) guard.emplace(fault::Config{c.site, 1, c.fires});
    AllocationPlan umm;
    const AllocationPlan plan = compiler.compile(g, &umm);
    EXPECT_EQ(plan.rung, c.rung) << what;
    EXPECT_TRUE(umm.is_umm) << what;
    EXPECT_EQ(umm.rung, reference.rung) << what;
    EXPECT_EQ(umm.design.array, reference.design.array) << what;
    EXPECT_EQ(umm.design.tile, reference.design.tile) << what;
    EXPECT_EQ(umm.design.freq_mhz, reference.design.freq_mhz) << what;
    EXPECT_EQ(umm.est_latency_s, reference.est_latency_s) << what;
    EXPECT_EQ(umm.umm_latency_s, reference.umm_latency_s) << what;
    EXPECT_EQ(umm.bram_used, reference.bram_used) << what;
    EXPECT_EQ(umm.uram_used, reference.uram_used) << what;
  }
}

TEST(ResilUmm, TransientFaultsLeaveTheBaselineUnchanged) {
  // The UMM floor retries a transient failure once on the same inputs, so
  // a one-shot fault anywhere on its path ships the fault-free plan.
  const auto g = models::build_by_name("googlenet");
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const AllocationPlan clean = compiler.compile_umm(g);
  for (const char* site : {"dse.explore", "pass.place"}) {
    const fault::ArmedGuard guard({.site = site});
    const AllocationPlan plan = compiler.compile_umm(g);
    EXPECT_EQ(plan.design.array, clean.design.array) << site;
    EXPECT_EQ(plan.design.tile, clean.design.tile) << site;
    EXPECT_EQ(plan.design.freq_mhz, clean.design.freq_mhz) << site;
    EXPECT_EQ(plan.est_latency_s, clean.est_latency_s) << site;
  }
}

TEST(ResilUmm, OnlyOneRetryAndNoneInStrictMode) {
  const auto g = lcmm::testing::chain3();
  {
    // Two consecutive faults outlast the single retry.
    const fault::ArmedGuard guard({.site = "pass.place", .nth = 1, .fires = 2});
    const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
    EXPECT_THROW(compiler.compile_umm(g), CompileError);
  }
  {
    LcmmOptions strict;
    strict.strict = true;
    const fault::ArmedGuard guard({.site = "pass.place"});
    const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                                strict);
    EXPECT_THROW(compiler.compile_umm(g), CompileError);
  }
}

// ---------------------------------------------------------------------------
// Batch driver hardening.
// ---------------------------------------------------------------------------

driver::BatchJob small_job(graph::ComputationGraph g,
                           hw::Precision p = hw::Precision::kInt16) {
  return {.graph = std::move(g), .device = hw::FpgaDevice::vu9p(), .precision = p};
}

TEST(ResilBatch, TransientFaultIsRetriedOnceAndRecovers) {
  // The compiler's own retry absorbs a one-shot fault: the job runs once
  // and ships the fault-free plan.
  std::vector<driver::BatchJob> jobs;
  jobs.push_back(small_job(lcmm::testing::chain3()));
  const auto clean = driver::compile_many(jobs, 1);
  ASSERT_TRUE(clean[0].ok()) << clean[0].error;
  const fault::ArmedGuard guard({.site = "pass.dnnk", .nth = 1, .fires = 1});
  obs::StatsSession session;
  const auto outcomes = driver::compile_many(jobs, 1);
  EXPECT_EQ(session.stats().counter("retries"), 1);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].attempts, 1);
  EXPECT_EQ(outcomes[0].label, "chain3");
  const AllocationPlan& plan = outcomes[0].lcmm_plan;
  const AllocationPlan& expected = clean[0].lcmm_plan;
  EXPECT_EQ(plan.rung, Rung::kFullLcmm);
  EXPECT_EQ(plan.design.array, expected.design.array);
  EXPECT_EQ(plan.design.tile, expected.design.tile);
  EXPECT_EQ(plan.design.freq_mhz, expected.design.freq_mhz);
  EXPECT_EQ(plan.est_latency_s, expected.est_latency_s);
  EXPECT_EQ(plan.buffer_on_chip, expected.buffer_on_chip);
  EXPECT_EQ(plan.resident_weights, expected.resident_weights);
  EXPECT_EQ(outcomes[0].lcmm_report.latency_ms,
            clean[0].lcmm_report.latency_ms);
  EXPECT_EQ(outcomes[0].umm_report.latency_ms, clean[0].umm_report.latency_ms);
}

TEST(ResilBatch, StrictJobsFailOnTheFirstAttempt) {
  // --strict asks to fail on the first typed error, so the compiler's
  // retry that would absorb a one-shot fault stays off.
  const fault::ArmedGuard guard({.site = "pass.dnnk"});
  std::vector<driver::BatchJob> jobs;
  jobs.push_back(small_job(lcmm::testing::chain3()));
  jobs.back().options.strict = true;
  const auto outcomes = driver::compile_many(jobs, 1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].attempts, 1);
  EXPECT_EQ(outcomes[0].error_info.code, Code::kFaultInjected);
  EXPECT_EQ(outcomes[0].error_info.pass, "pass.dnnk");
}

TEST(ResilBatch, DeterministicFailuresDoNotRetry) {
  hw::FpgaDevice no_dsps = hw::FpgaDevice::vu9p();
  no_dsps.dsp_total = 0;
  std::vector<driver::BatchJob> jobs;
  jobs.push_back(small_job(lcmm::testing::chain3()));
  jobs.back().device = no_dsps;
  jobs.back().label = "chain3/no-dsps";
  const auto outcomes = driver::compile_many(jobs, 1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].attempts, 1);  // kNoFeasibleDesign is not transient
  EXPECT_EQ(outcomes[0].error_info.code, Code::kNoFeasibleDesign);
  EXPECT_EQ(outcomes[0].label, "chain3/no-dsps");
}

TEST(ResilBatch, SweepSurvivesAMidListFailure) {
  hw::FpgaDevice no_dsps = hw::FpgaDevice::vu9p();
  no_dsps.dsp_total = 0;
  std::vector<driver::BatchJob> jobs;
  jobs.push_back(small_job(lcmm::testing::chain3()));
  jobs.push_back(small_job(lcmm::testing::diamond()));
  jobs.back().device = no_dsps;
  jobs.push_back(small_job(lcmm::testing::residual_block()));
  const auto outcomes = driver::compile_many(jobs, 3);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_TRUE(outcomes[2].ok()) << outcomes[2].error;
}

TEST(ResilBatch, FaultedOutcomesAreWorkerCountIndependent) {
  // The acceptance bar: under an armed fault, 1 and 8 batch workers must
  // produce byte-identical outcomes — same rung, same errors, same
  // latencies. Sticky pass.prefetch lands every LCMM plan on the UMM floor
  // deterministically.
  const fault::ArmedGuard guard(
      {.site = "pass.prefetch", .nth = 1, .fires = -1});
  const auto sweep = [](int workers) {
    std::vector<driver::BatchJob> jobs;
    jobs.push_back(small_job(lcmm::testing::chain3()));
    jobs.push_back(small_job(lcmm::testing::diamond()));
    jobs.push_back(small_job(lcmm::testing::residual_block(),
                             hw::Precision::kInt8));
    jobs.push_back(small_job(lcmm::testing::chain3(), hw::Precision::kInt8));
    return driver::compile_many(jobs, workers);
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].ok(), parallel[i].ok()) << i;
    EXPECT_EQ(serial[i].error, parallel[i].error) << i;
    EXPECT_EQ(serial[i].attempts, parallel[i].attempts) << i;
    EXPECT_EQ(serial[i].lcmm_plan.rung, parallel[i].lcmm_plan.rung) << i;
    EXPECT_EQ(serial[i].lcmm_plan.rung, Rung::kUmm) << i;
    EXPECT_EQ(serial[i].umm_report.latency_ms, parallel[i].umm_report.latency_ms)
        << i;
    EXPECT_EQ(serial[i].lcmm_report.latency_ms,
              parallel[i].lcmm_report.latency_ms)
        << i;
  }
}

TEST(ResilBatch, ReportsCarryTheRung) {
  const fault::ArmedGuard guard({.site = "pass.dnnk", .nth = 1, .fires = -1});
  std::vector<driver::BatchJob> jobs;
  jobs.push_back(small_job(lcmm::testing::chain3()));
  const auto outcomes = driver::compile_many(jobs, 1);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].lcmm_report.rung, "umm");
  EXPECT_EQ(outcomes[0].lcmm_report.degrade_reason, "LCMM-E801@pass.dnnk");
  EXPECT_EQ(outcomes[0].umm_report.rung, "umm");
}

// ---------------------------------------------------------------------------
// Env-driven fault matrix (the CI job's entry point).
// ---------------------------------------------------------------------------

// Run with LCMM_FAULT=<site> (one-shot by default): every registered model
// must still compile to a check-clean plan, degrading no further than UMM.
// Skips when LCMM_FAULT is unset so plain ctest runs are unaffected.
TEST(FaultMatrix, EveryModelCompilesCheckCleanUnderEnvFault) {
  { const fault::Scope force_env_arm; }  // LCMM_FAULT is read lazily
  const auto config = fault::armed();
  if (!config.has_value()) {
    GTEST_SKIP() << "LCMM_FAULT not set; nothing to inject";
  }
  const LcmmOptions base;
  for (const std::string& name : models::model_names()) {
    SCOPED_TRACE("model " + name + ", fault " + config->site);
    const auto g = models::build_by_name(name);
    const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                                base);
    const AllocationPlan plan = compiler.compile(g);
    EXPECT_LE(static_cast<int>(plan.rung), static_cast<int>(Rung::kUmm));
    expect_check_clean(g, plan, base);
  }
}

}  // namespace
}  // namespace lcmm::resil
