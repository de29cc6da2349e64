// Tests for lcmm::resil — the typed error taxonomy, overflow-checked size
// arithmetic, the deterministic fault-injection registry, and the UMM floor
// in LcmmCompiler::compile. The FaultMatrix test at the bottom arms every
// registered site, one-shot and sticky, over every registered model.
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
  const fault::ArmedGuard guard({.site = "pass.dnnk", .nth = 1});
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
    const fault::ArmedGuard guard({.site = "io.parse", .nth = 3});
    const fault::Scope scope;
    EXPECT_NO_THROW(fault::hit("io.parse"));
    EXPECT_NO_THROW(fault::hit("io.parse"));
    EXPECT_THROW(fault::hit("io.parse"), CompileError);
    EXPECT_NO_THROW(fault::hit("io.parse"));
  }
  {
    const fault::ArmedGuard guard({.site = "io.parse", .nth = 2, .sticky = true});
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
// The UMM floor.
// ---------------------------------------------------------------------------

/// The sites compile() hits; io.parse is hit only while a file is read.
constexpr const char* kCompileSites[] = {
    "dse.explore", "pass.liveness",  "pass.coloring", "pass.prefetch",
    "pass.dnnk",   "pass.splitting", "pass.place"};

void expect_check_clean(const graph::ComputationGraph& g,
                        const AllocationPlan& plan, const LcmmOptions& options) {
  const check::CheckReport report =
      check::run_checks(g, plan, check::CheckOptions::from(options));
  EXPECT_FALSE(report.fails(false))
      << "rung " << rung_name(plan.rung) << ": " << report.num_errors()
      << " checker errors";
}

/// `plan` ships the design, latencies and SRAM use of the UMM plan `umm`.
void expect_same_umm_plan(const AllocationPlan& plan, const AllocationPlan& umm,
                          const std::string& what) {
  EXPECT_EQ(plan.design.array, umm.design.array) << what;
  EXPECT_EQ(plan.design.tile, umm.design.tile) << what;
  EXPECT_EQ(plan.design.freq_mhz, umm.design.freq_mhz) << what;
  EXPECT_EQ(plan.est_latency_s, umm.est_latency_s) << what;
  EXPECT_EQ(plan.umm_latency_s, umm.umm_latency_s) << what;
  EXPECT_EQ(plan.bram_used, umm.bram_used) << what;
  EXPECT_EQ(plan.uram_used, umm.uram_used) << what;
}

TEST(ResilLadder, OneShotFaultsShipTheUmmFloor) {
  // A single injected failure anywhere on the compile path fails the LCMM
  // pipeline, and the compile ships its UMM baseline. The floor spends the
  // compile's fault budget, so the baseline and the design-space work
  // equal a fault-free compile's.
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
  for (const char* site : kCompileSites) {
    const Run r = run(site);
    EXPECT_EQ(r.plan.rung, Rung::kUmm) << site;
    EXPECT_EQ(r.plan.degrade_reason, std::string("LCMM-E801@") + site) << site;
    expect_same_umm_plan(r.plan, r.umm, site);
    expect_same_umm_plan(r.umm, clean.umm, site);
    EXPECT_EQ(r.cost_evals, clean.cost_evals) << site;
  }
}

TEST(ResilLadder, OneShotFaultAtEveryCompileSiteDegradesOneRung) {
  // The fault fires once, the pipeline fails, and the budget is spent: the
  // floor completes and ships a check-clean UMM plan.
  const auto g = lcmm::testing::chain3();
  const LcmmOptions base;
  for (const char* site : kCompileSites) {
    const fault::ArmedGuard guard({.site = site});
    const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                                base);
    obs::StatsSession session;
    const AllocationPlan plan = compiler.compile(g);
    EXPECT_EQ(plan.rung, Rung::kUmm) << site;
    EXPECT_EQ(plan.degrade_reason, std::string("LCMM-E801@") + site) << site;
    EXPECT_EQ(session.stats().counter("ladder_degraded"), 1) << site;
    expect_check_clean(g, plan, base);
  }
}

TEST(ResilLadder, DegradedRungsShareTheRequestsDesignSpace) {
  // The UMM floor picks its design from the table the request already
  // built: neither a one-shot nor a sticky fault costs a second DSE
  // evaluation.
  const auto g = models::build_by_name("googlenet");
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto cost_evals = [&](const char* site, bool sticky, Rung expected) {
    std::optional<fault::ArmedGuard> guard;
    if (site) guard.emplace(fault::Config{.site = site, .sticky = sticky});
    obs::StatsSession session;
    const AllocationPlan plan = compiler.compile(g);
    EXPECT_EQ(plan.rung, expected) << (site ? site : "clean") << " " << sticky;
    return session.stats().counter("dse.cost_evals");
  };
  const std::int64_t clean = cost_evals(nullptr, false, Rung::kFullLcmm);
  EXPECT_GT(clean, 0);
  EXPECT_EQ(cost_evals("pass.dnnk", false, Rung::kUmm), clean);
  EXPECT_EQ(cost_evals("pass.dnnk", true, Rung::kUmm), clean);
}

TEST(ResilLadder, InfeasibleDeviceBuildsTheDesignSpaceTwice) {
  // A deterministic E611 fails the pipeline and the floor alike: the
  // pipeline builds the design space once, the UMM floor once more, and
  // the error propagates.
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
  // No rung turns a gated pass off any more: sticky prefetch and liveness
  // faults both ship the UMM floor, naming the site.
  const auto g = lcmm::testing::chain3();
  const LcmmOptions base;
  for (const char* site : {"pass.prefetch", "pass.liveness"}) {
    const fault::ArmedGuard guard({.site = site, .sticky = true});
    const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                                base);
    const AllocationPlan plan = compiler.compile(g);
    EXPECT_EQ(plan.rung, Rung::kUmm) << site;
    EXPECT_EQ(plan.degrade_reason, std::string("LCMM-E801@") + site) << site;
    expect_check_clean(g, plan, base);
  }
}

TEST(ResilLadder, StickyUngatedFaultFallsToTheUmmFloor) {
  // pass.dnnk is hit on the LCMM path but not on the UMM baseline path:
  // the compile ships UMM, flagged via rung (not is_umm, which mirrors the
  // no-benefit fallback convention).
  const auto g = lcmm::testing::chain3();
  const LcmmOptions base;
  const fault::ArmedGuard guard({.site = "pass.dnnk", .sticky = true});
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
  const fault::ArmedGuard guard({.site = "pass.place", .sticky = true});
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
    bool sticky;
    Rung rung;
  } cases[] = {
      {nullptr, false, Rung::kFullLcmm},
      {"pass.dnnk", false, Rung::kUmm},
      {"pass.place", false, Rung::kUmm},
      {"pass.prefetch", true, Rung::kUmm},
      {"pass.dnnk", true, Rung::kUmm},
  };
  for (const auto& c : cases) {
    const std::string what = c.site ? std::string(c.site) : "no fault";
    std::optional<fault::ArmedGuard> guard;
    if (c.site) guard.emplace(fault::Config{.site = c.site, .sticky = c.sticky});
    AllocationPlan umm;
    const AllocationPlan plan = compiler.compile(g, &umm);
    EXPECT_EQ(plan.rung, c.rung) << what;
    EXPECT_TRUE(umm.is_umm) << what;
    EXPECT_EQ(umm.rung, reference.rung) << what;
    expect_same_umm_plan(umm, reference, what);
  }
}

TEST(ResilUmm, TransientFaultsLeaveTheBaselineUnchanged) {
  // The UMM baseline hits only dse.explore and pass.place: a one-shot fault
  // armed at any LCMM-only site never fires on its path, and compile_umm
  // ships the fault-free plan.
  const auto g = models::build_by_name("googlenet");
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const AllocationPlan clean = compiler.compile_umm(g);
  for (const char* site : {"pass.liveness", "pass.coloring", "pass.prefetch",
                           "pass.dnnk", "pass.splitting"}) {
    const fault::ArmedGuard guard({.site = site});
    const AllocationPlan plan = compiler.compile_umm(g);
    expect_same_umm_plan(plan, clean, site);
  }
}

TEST(ResilUmm, OnlyOneRetryAndNoneInStrictMode) {
  // compile_umm makes no retry, strict or not, and there is no floor below
  // the UMM baseline: a one-shot fault anywhere on its path propagates as a
  // typed E801 naming the site in either mode.
  const auto g = lcmm::testing::chain3();
  for (const bool strict : {false, true}) {
    LcmmOptions options;
    options.strict = strict;
    const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                                options);
    for (const char* site : {"dse.explore", "pass.place"}) {
      const fault::ArmedGuard guard({.site = site});
      try {
        compiler.compile_umm(g);
        ADD_FAILURE() << site << " strict=" << strict
                      << ": expected the fault to propagate";
      } catch (const CompileError& e) {
        EXPECT_EQ(e.code(), Code::kFaultInjected) << site << " " << strict;
        EXPECT_EQ(e.pass(), site) << site << " " << strict;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batch driver hardening.
// ---------------------------------------------------------------------------

driver::BatchJob small_job(graph::ComputationGraph g,
                           hw::Precision p = hw::Precision::kInt16) {
  return {.graph = std::move(g), .device = hw::FpgaDevice::vu9p(), .precision = p};
}

TEST(ResilBatch, OneShotFaultShipsTheUmmFloor) {
  // A one-shot fault fails the job's LCMM pipeline once: the job runs once,
  // succeeds, and its LCMM design is the fault-free UMM plan.
  std::vector<driver::BatchJob> jobs;
  jobs.push_back(small_job(lcmm::testing::chain3()));
  const auto clean = driver::compile_many(jobs, 1);
  ASSERT_TRUE(clean[0].ok()) << clean[0].error;
  const fault::ArmedGuard guard({.site = "pass.dnnk"});
  const auto outcomes = driver::compile_many(jobs, 1);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].attempts, 1);
  EXPECT_EQ(outcomes[0].label, "chain3");
  EXPECT_EQ(outcomes[0].lcmm_plan.rung, Rung::kUmm);
  EXPECT_EQ(outcomes[0].lcmm_report.degrade_reason, "LCMM-E801@pass.dnnk");
  expect_same_umm_plan(outcomes[0].lcmm_plan, clean[0].umm_plan, "lcmm");
  expect_same_umm_plan(outcomes[0].umm_plan, clean[0].umm_plan, "umm");
  EXPECT_EQ(outcomes[0].lcmm_report.latency_ms, clean[0].umm_report.latency_ms);
  EXPECT_EQ(outcomes[0].umm_report.latency_ms, clean[0].umm_report.latency_ms);
}

TEST(ResilBatch, StrictJobsFailOnTheFirstAttempt) {
  // --strict asks to fail on the first typed error, so the UMM floor that
  // would absorb a one-shot fault stays off.
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
  EXPECT_EQ(outcomes[0].attempts, 1);
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
  const fault::ArmedGuard guard({.site = "pass.prefetch", .sticky = true});
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
  const fault::ArmedGuard guard({.site = "pass.dnnk", .sticky = true});
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
// Fault matrix.
// ---------------------------------------------------------------------------

// Every registered site, one-shot and sticky, on every registered model:
// the compile degrades no further than the UMM floor and ships a
// check-clean plan. The only exceptions are sticky faults on the sites the
// floor shares, which propagate typed.
TEST(FaultMatrix, EveryModelCompilesCheckCleanUnderEveryFault) {
  const LcmmOptions base;
  const LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16,
                              base);
  std::vector<std::pair<std::string, graph::ComputationGraph>> graphs;
  for (const std::string& name : models::model_names()) {
    graphs.emplace_back(name, models::build_by_name(name));
  }
  for (const char* site : fault::sites()) {
    const std::string name(site);
    const bool shared = name == "dse.explore" || name == "pass.place";
    for (const bool sticky : {false, true}) {
      const fault::ArmedGuard guard({.site = name, .sticky = sticky});
      for (const auto& [model, g] : graphs) {
        SCOPED_TRACE("model " + model + ", fault " + name +
                     (sticky ? " sticky" : " one-shot"));
        if (sticky && shared) {
          try {
            compiler.compile(g);
            ADD_FAILURE() << "expected the fault to propagate";
          } catch (const CompileError& e) {
            EXPECT_EQ(e.code(), Code::kFaultInjected);
            EXPECT_EQ(e.pass(), name);
          }
          continue;
        }
        const AllocationPlan plan = compiler.compile(g);
        if (name == "io.parse") {
          EXPECT_EQ(plan.rung, Rung::kFullLcmm);
        } else {
          EXPECT_EQ(plan.rung, Rung::kUmm);
          EXPECT_EQ(plan.degrade_reason, "LCMM-E801@" + name);
        }
        expect_check_clean(g, plan, base);
      }
    }
  }
}

}  // namespace
}  // namespace lcmm::resil
