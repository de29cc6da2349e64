#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/lcmm.hpp"
#include "driver/batch.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "resil/fault.hpp"

namespace lcmm::obs {
namespace {

TEST(CompileStats, SpanNestingTracksParentAndDepth) {
  CompileStats stats;
  const int outer = stats.begin_span("outer");
  const int inner = stats.begin_span("inner");
  stats.end_span(inner);
  const int sibling = stats.begin_span("sibling");
  stats.end_span(sibling);
  stats.end_span(outer);

  ASSERT_EQ(stats.spans().size(), 3u);
  EXPECT_EQ(stats.spans()[0].name, "outer");
  EXPECT_EQ(stats.spans()[0].parent, -1);
  EXPECT_EQ(stats.spans()[0].depth, 0);
  EXPECT_EQ(stats.spans()[1].name, "inner");
  EXPECT_EQ(stats.spans()[1].parent, outer);
  EXPECT_EQ(stats.spans()[1].depth, 1);
  EXPECT_EQ(stats.spans()[2].parent, outer);
  // The parent covers its children.
  EXPECT_GE(stats.spans()[0].dur_s, stats.spans()[1].dur_s);
  EXPECT_FALSE(stats.spans()[0].open);
}

TEST(CompileStats, EndSpanClosesAbandonedChildren) {
  CompileStats stats;
  const int outer = stats.begin_span("outer");
  stats.begin_span("leaked");  // never explicitly closed
  stats.end_span(outer);
  EXPECT_EQ(stats.current_span(), -1);
  EXPECT_FALSE(stats.spans()[1].open);
  EXPECT_THROW(stats.end_span(outer), std::logic_error);
  EXPECT_THROW(stats.end_span(99), std::out_of_range);
}

TEST(CompileStats, CountersAccumulatePerSpanAndAggregate) {
  CompileStats stats;
  const int a = stats.begin_span("pass");
  stats.count("cells", 10);
  stats.count("cells", 5);
  stats.end_span(a);
  const int b = stats.begin_span("pass");
  stats.count("cells", 1);
  stats.end_span(b);
  const int other = stats.begin_span("other");
  stats.count("cells", 100);
  stats.end_span(other);
  stats.count("cells", 1000);  // no open span: root scope

  EXPECT_EQ(stats.spans()[0].counters.at("cells"), 15);
  EXPECT_EQ(stats.counter("pass.cells"), 16);   // qualified: both "pass" spans
  EXPECT_EQ(stats.counter("other.cells"), 100);
  EXPECT_EQ(stats.counter("cells"), 1116);      // bare: everything + root
  EXPECT_EQ(stats.root_counters().at("cells"), 1000);
  EXPECT_EQ(stats.span_count("pass"), 2);
  EXPECT_EQ(stats.aggregate_counters().at("pass.cells"), 16);
}

TEST(CompileStats, GaugesLastWriteWinsAndDecisionsRecordPass) {
  CompileStats stats;
  const int span = stats.begin_span("dnnk");
  stats.gauge("capacity_bytes", 1.0);
  stats.gauge("capacity_bytes", 2.0);
  stats.decide("vbuf#3", 4096, false, "knapsack-spill");
  stats.end_span(span);

  EXPECT_DOUBLE_EQ(stats.spans()[0].gauges.at("capacity_bytes"), 2.0);
  ASSERT_EQ(stats.decisions().size(), 1u);
  EXPECT_EQ(stats.decisions()[0].pass, "dnnk");
  EXPECT_EQ(stats.decisions()[0].subject, "vbuf#3");
  EXPECT_EQ(stats.decisions()[0].bytes, 4096);
  EXPECT_FALSE(stats.decisions()[0].accepted);
  EXPECT_EQ(stats.decisions()[0].reason, "knapsack-spill");
}

TEST(Macros, NoOpWithoutSession) {
  ASSERT_EQ(current(), nullptr);
  // None of these may crash or leak state when collection is disabled.
  LCMM_SPAN("orphan");
  LCMM_COUNT("x", 1);
  LCMM_GAUGE("y", 2.0);
  LCMM_DECIDE("z", 0, true, "reason");
  EXPECT_EQ(current(), nullptr);
}

TEST(Macros, RecordIntoActiveSession) {
  StatsSession session;
  {
    LCMM_SPAN("macro_span");
    LCMM_COUNT("hits", 2);
    LCMM_COUNT("hits", 3);
  }
  EXPECT_EQ(session.stats().counter("macro_span.hits"), 5);
  EXPECT_EQ(session.stats().span_count("macro_span"), 1);
}

TEST(StatsSession, NestedSessionsShadowAndRestore) {
  ASSERT_EQ(current(), nullptr);
  {
    StatsSession outer;
    EXPECT_EQ(current(), &outer.stats());
    {
      StatsSession inner;
      EXPECT_EQ(current(), &inner.stats());
      LCMM_COUNT("n", 1);
      EXPECT_EQ(inner.stats().counter("n"), 1);
    }
    EXPECT_EQ(current(), &outer.stats());
    EXPECT_EQ(outer.stats().counter("n"), 0);
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(Export, StatsJsonSchema) {
  CompileStats stats;
  const int span = stats.begin_span("liveness");
  stats.count("entities", 7);
  stats.gauge("bytes", 123.0);
  stats.end_span(span);
  stats.decide("vbuf#1", 64, true, "knapsack-selected");

  const util::Json json = stats_to_json(stats);
  const std::string text = json.dump();
  EXPECT_NE(text.find("\"schema\": \"lcmm-compile-stats-v1\""),
            std::string::npos);
  // Every core pass has an aggregate entry even when it did not run.
  for (const char* pass : kCorePasses) {
    EXPECT_NE(text.find("\"" + std::string(pass) + "\""), std::string::npos)
        << pass;
  }
  EXPECT_NE(text.find("\"entities\": 7"), std::string::npos);
  EXPECT_NE(text.find("\"knapsack-selected\""), std::string::npos);
  // The span tree serializes with ids, parents and timing.
  EXPECT_NE(text.find("\"parent\": -1"), std::string::npos);
  EXPECT_NE(text.find("\"dur_us\""), std::string::npos);
}

TEST(Export, ChromeTraceHasTrackMetadataAndSpans) {
  CompileStats stats;
  const int outer = stats.begin_span("pipeline");
  const int inner = stats.begin_span("dnnk");
  stats.end_span(inner);
  stats.end_span(outer);

  const std::string text = stats_to_chrome_trace(stats).dump(-1);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"lcmm compiler\""), std::string::npos);
  EXPECT_NE(text.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Integration, FullCompileEmitsNonZeroPerPassSpans) {
  const graph::ComputationGraph graph = models::build_by_name("alexnet");
  StatsSession session;
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const core::AllocationPlan plan = compiler.compile(graph);
  (void)plan;

  const CompileStats& stats = session.stats();
  for (const char* pass : obs::kCorePasses) {
    EXPECT_GE(stats.span_count(pass), 1) << pass;
    EXPECT_GT(stats.span_seconds(pass), 0.0) << pass;
  }
  // Every core pass recorded at least one unit of work.
  EXPECT_GT(stats.counter("liveness.entities"), 0);
  EXPECT_GT(stats.counter("interference.entities"), 0);
  EXPECT_GT(stats.counter("coloring.colors"), 0);
  EXPECT_GT(stats.counter("prefetch.edges"), 0);
  EXPECT_GT(stats.counter("dnnk.dp_cells"), 0);
  EXPECT_GT(stats.counter("dnnk.member_terms"), 0);
  EXPECT_GT(stats.counter("splitting.iterations"), 0);
  EXPECT_GT(stats.counter("pipeline.dse_rounds"), 0);
  // The DNNK pass logged a decision for every virtual buffer it saw.
  EXPECT_GT(stats.decisions().size(), 0u);
  // All spans are closed and the tree is well-formed.
  for (const Span& span : stats.spans()) {
    EXPECT_FALSE(span.open) << span.name;
    EXPECT_GE(span.dur_s, 0.0);
    if (span.parent >= 0) {
      EXPECT_LT(span.parent, static_cast<int>(stats.spans().size()));
      EXPECT_EQ(stats.spans()[static_cast<std::size_t>(span.parent)].depth,
                span.depth - 1);
    }
  }
}

TEST(Integration, DseWorkCountersRepeatAcrossWorkerCounts) {
  // One compile builds one design-space table and runs its argmins (UMM
  // baseline, LCMM seed, refine) on it; the counts, ties, stream rows and
  // evaluated candidates included, add up job by job at any batch worker
  // count.
  const graph::ComputationGraph graph = models::build_by_name("googlenet");
  const auto dse_counters = [&](std::size_t copies, int workers) {
    const std::vector<driver::BatchJob> jobs(
        copies, {.graph = graph,
                 .device = hw::FpgaDevice::vu9p(),
                 .precision = hw::Precision::kInt16,
                 .want_umm = false});
    StatsSession session;
    for (const auto& outcome : driver::compile_many(jobs, workers)) {
      EXPECT_TRUE(outcome.ok()) << outcome.error;
    }
    const CompileStats& stats = session.stats();
    return std::vector<std::int64_t>{
        stats.counter("dse.menu"), stats.counter("dse.shape_classes"),
        stats.counter("dse.cost_evals"), stats.counter("dse.argmins"),
        stats.span_count("dse"), stats.counter("dse.cost_terms"),
        stats.counter("dse.ties_broken"), stats.counter("dse.stream_rows"),
        stats.counter("dse.candidates_evaluated")};
  };
  const std::vector<std::int64_t> serial = dse_counters(1, 1);
  const std::int64_t menu = serial[0], classes = serial[1];
  EXPECT_GT(menu, 0);
  EXPECT_GT(classes, 0);
  EXPECT_LT(classes, static_cast<std::int64_t>(graph.num_layers()));
  EXPECT_EQ(serial[2], menu * classes);  // exactly one table
  EXPECT_GE(serial[3], 3);               // UMM, seed and >= 1 refine
  EXPECT_EQ(serial[4], 1 + serial[3]);   // the table build plus each argmin
  // The factored table computes each sub-term once per distinct input:
  // far fewer than one full cost per (candidate, class).
  EXPECT_GT(serial[5], 0);
  EXPECT_LT(serial[5], serial[2]);
  // The argmins fill stream rows and evaluate candidates only while the
  // compute bound lets a candidate win.
  EXPECT_GT(serial[7], 0);
  EXPECT_GE(serial[8], serial[3]);
  EXPECT_LT(serial[8], serial[3] * menu);
  std::vector<std::int64_t> twice = serial;
  for (std::int64_t& count : twice) count *= 2;
  EXPECT_EQ(dse_counters(2, 1), twice);
  EXPECT_EQ(dse_counters(2, 4), twice);
}

TEST(Integration, DnnkWorkCountersRepeatAcrossRunsAndWorkerCounts) {
  // gain_runs counts the (row, run of equal owner state) pairs whose gains
  // were summed and member_terms the member gains those sums read (members
  // x runs, summed over rows); like
  // dp_cells and fits_all (the calls where every buffer fits and the DP
  // does not run) they are pure functions of the jobs, so repeats and
  // worker counts agree. zu9eg's SRAM is too small to hold every buffer,
  // so its calls run the DP.
  const auto dnnk_counters = [](int workers) {
    std::vector<driver::BatchJob> jobs;
    for (const char* name : {"googlenet", "resnet50", "squeezenet"}) {
      jobs.push_back({.graph = models::build_by_name(name),
                      .device = hw::FpgaDevice::zu9eg(),
                      .precision = hw::Precision::kInt16});
    }
    StatsSession session;
    for (const auto& outcome : driver::compile_many(jobs, workers)) {
      EXPECT_TRUE(outcome.ok()) << outcome.error;
    }
    const CompileStats& stats = session.stats();
    return std::vector<std::int64_t>{stats.counter("dnnk.member_terms"),
                                     stats.counter("dnnk.dp_cells"),
                                     stats.span_count("dnnk"),
                                     stats.counter("dnnk.gain_runs"),
                                     stats.counter("dnnk.fits_all")};
  };
  const std::vector<std::int64_t> serial = dnnk_counters(1);
  EXPECT_GT(serial[0], 0);
  EXPECT_GT(serial[1], 0);
  EXPECT_GT(serial[3], 0);
  EXPECT_LE(serial[3], serial[1]);
  EXPECT_EQ(dnnk_counters(1), serial);
  EXPECT_EQ(dnnk_counters(4), serial);
}

TEST(Integration, SessionNestsEachCompileUnderItsOwnPipelineSpan) {
  StatsSession session;
  for (const char* name : {"alexnet", "squeezenet"}) {
    const core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(),
                                      hw::Precision::kInt16);
    compiler.compile(models::build_by_name(name));
  }
  const std::vector<Span>& spans = session.stats().spans();
  std::vector<int> roots;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    if (spans[i].depth == 0) roots.push_back(i);
  }
  ASSERT_EQ(roots.size(), 2u);
  for (const int root : roots) EXPECT_EQ(spans[root].name, "pipeline");

  // Spans are recorded in begin order, so a span belongs to the compile
  // whose root began last before it; its parent chain must end there.
  std::map<std::pair<int, std::string>, int> nested;  // (root, name) -> count
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    if (spans[i].name != "dse" && spans[i].name != "dnnk") continue;
    int top = i;
    while (spans[top].parent >= 0) top = spans[top].parent;
    const int owner = i < roots[1] ? roots[0] : roots[1];
    EXPECT_EQ(top, owner) << spans[i].name << " span " << i;
    ++nested[{top, spans[i].name}];
  }
  for (const int root : roots) {
    EXPECT_GE((nested[{root, "dse"}]), 1) << "root " << root;
    EXPECT_GE((nested[{root, "dnnk"}]), 1) << "root " << root;
  }
}

/// Bit patterns of every number in `sim`, for bit-for-bit comparison.
std::vector<std::uint64_t> sim_bits(const sim::SimResult& sim) {
  std::vector<std::uint64_t> bits;
  const auto add = [&](double x) {
    bits.push_back(std::bit_cast<std::uint64_t>(x));
  };
  add(sim.total_s);
  add(sim.total_stall_s);
  add(sim.hidden_prefetch_s);
  for (const sim::LayerExecution& e : sim.layers) {
    bits.push_back(static_cast<std::uint64_t>(e.layer));
    for (double x : {e.start_s, e.end_s, e.compute_s, e.if_s, e.wt_s, e.of_s,
                     e.stall_s}) {
      add(x);
    }
  }
  return bits;
}

TEST(Integration, EachDesignModelledOnceEachPlanSimulatedOnce) {
  // A --design both job builds one cost model per design it allocates
  // under plus one for the UMM baseline, and simulates once per stall
  // refinement round plus once for the baseline; the outcome's simulations
  // are those runs, equal to fresh ones bit for bit. vu9p and zu9eg hold
  // most of the no-benefit fallbacks; the sticky pass.dnnk job ships the
  // UMM floor.
  std::vector<driver::BatchJob> jobs;
  for (const std::string& name : models::model_names()) {
    const graph::ComputationGraph graph = models::build_by_name(name);
    for (const hw::FpgaDevice& device :
         {hw::FpgaDevice::vu9p(), hw::FpgaDevice::zu9eg()}) {
      for (hw::Precision precision : hw::kAllPrecisions) {
        jobs.push_back({.graph = graph, .device = device, .precision = precision,
                        .label = name + "/" + device.name + "/" +
                                 hw::to_string(precision)});
      }
    }
  }
  jobs.push_back({.graph = models::build_by_name("googlenet"),
                  .label = "googlenet/sticky-dnnk"});
  std::int64_t fallbacks = 0;
  for (const driver::BatchJob& job : jobs) {
    std::optional<resil::fault::ArmedGuard> fault;
    if (job.label.ends_with("sticky-dnnk")) {
      fault.emplace(resil::fault::Config{.site = "pass.dnnk", .sticky = true});
    }
    StatsSession session;
    const std::vector<driver::BatchOutcome> out = driver::compile_many({job}, 1);
    ASSERT_TRUE(out[0].ok()) << job.label << ": " << out[0].error;
    const CompileStats& stats = session.stats();
    EXPECT_EQ(stats.span_count("perf_model"), stats.span_count("allocate") + 1)
        << job.label;
    EXPECT_EQ(stats.span_count("simulate"),
              stats.counter("refine_stalls.rounds") + 1)
        << job.label;
    EXPECT_EQ(sim_bits(out[0].umm_sim),
              sim_bits(sim::simulate(job.graph, out[0].umm_plan)))
        << job.label;
    EXPECT_EQ(sim_bits(out[0].lcmm_sim),
              sim_bits(sim::simulate(job.graph, out[0].lcmm_plan)))
        << job.label;
    fallbacks += stats.counter("pipeline.fallback_to_umm");
    if (fault) {
      EXPECT_EQ(out[0].lcmm_plan.rung, resil::Rung::kUmm);
      EXPECT_EQ(stats.counter("refine_stalls.rounds"), 0);
    }
  }
  EXPECT_GT(fallbacks, 0);
}

}  // namespace
}  // namespace lcmm::obs
