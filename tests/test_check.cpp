// Negative tests for the lcmm::check plan verifier: each test corrupts a
// compiled plan in exactly one way and asserts the responsible analysis
// pass reports its stable diagnostic code (and nothing else errors).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/emit.hpp"
#include "models/models.hpp"
#include "test_graphs.hpp"

namespace lcmm::check {
namespace {

using core::AllocationPlan;
using core::TensorSource;

AllocationPlan compiled_plan(const graph::ComputationGraph& g,
                             hw::Precision p = hw::Precision::kInt16) {
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), p);
  return compiler.compile(g);
}

/// Asserts every error-severity diagnostic came from one pass.
void expect_errors_only_from(const CheckReport& report, const char* pass) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity != Severity::kError) continue;
    EXPECT_EQ(d.pass, pass) << code_id(d.code) << ": " << d.message;
  }
}

const Diagnostic* find(const CheckReport& report, Code code) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Diagnostic plumbing.
// ---------------------------------------------------------------------------

TEST(Diagnostics, StableIds) {
  EXPECT_EQ(code_id(Code::kPlanShapeMismatch), "LCMM-E001");
  EXPECT_EQ(code_id(Code::kLifespanOverlap), "LCMM-E102");
  EXPECT_EQ(code_id(Code::kPrefetchDeadlineMissed), "LCMM-W204");
  EXPECT_EQ(code_id(Code::kDmaComputeRace), "LCMM-E301");
  EXPECT_EQ(code_id(Code::kStepCapacityExceeded), "LCMM-E406");
  EXPECT_EQ(code_id(Code::kZeroGainGrant), "LCMM-N503");
}

TEST(Diagnostics, CodeTableIsSortedAndComplete) {
  const std::vector<Code>& codes = all_codes();
  ASSERT_FALSE(codes.empty());
  for (std::size_t i = 1; i < codes.size(); ++i) {
    EXPECT_LT(static_cast<int>(codes[i - 1]), static_cast<int>(codes[i]));
  }
  for (Code c : codes) {
    EXPECT_STRNE(code_name(c), "");
    EXPECT_STRNE(code_summary(c), "");
  }
  EXPECT_EQ(default_severity(Code::kPrefetchDeadlineMissed),
            Severity::kWarning);
  EXPECT_EQ(default_severity(Code::kZeroGainGrant), Severity::kNote);
  EXPECT_EQ(default_severity(Code::kDmaComputeRace), Severity::kError);
}

TEST(Diagnostics, FailGating) {
  CheckReport report;
  EXPECT_FALSE(report.fails(false));
  report.set_pass("prefetch");
  report.add(Code::kPrefetchDeadlineMissed, "stalls");
  EXPECT_FALSE(report.fails(false));  // warnings pass the default gate
  EXPECT_TRUE(report.fails(true));    // but not the strict one
  report.add(Code::kLifespanOverlap, "boom");
  EXPECT_TRUE(report.fails(false));
}

TEST(Diagnostics, PassRegistryShape) {
  ASSERT_EQ(check_passes().size(), 6u);
  EXPECT_STREQ(check_passes().front().name, "structure");
}

// ---------------------------------------------------------------------------
// Structure pass.
// ---------------------------------------------------------------------------

TEST(CheckStructure, PlanGraphShapeMismatch) {
  auto g1 = lcmm::testing::chain3();
  auto g2 = models::build_googlenet();
  const CheckReport report = run_checks(g1, compiled_plan(g2));
  ASSERT_TRUE(report.has(Code::kPlanShapeMismatch));
  EXPECT_TRUE(report.fails(false));
  expect_errors_only_from(report, "structure");
}

TEST(CheckStructure, ResidentWeightOnBadLayer) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  plan.resident_weights.push_back(9999);
  const CheckReport report = run_checks(g, plan);
  ASSERT_TRUE(report.has(Code::kResidentBadLayer));
  expect_errors_only_from(report, "structure");
}

// ---------------------------------------------------------------------------
// Liveness pass (§3.1).
// ---------------------------------------------------------------------------

TEST(CheckLiveness, MergingInterferingTensorsIsCaught) {
  // vgg16 at int16 leaves buffers spilled, giving the corruption an
  // off-chip destination (race/capacity passes stay out of the picture).
  // Its refined plan simulates slower than UMM, so skip the fallback.
  auto g = models::build_by_name("vgg16");
  core::LcmmOptions options;
  options.allow_fallback_to_umm = false;
  AllocationPlan plan =
      core::LcmmCompiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, options)
          .compile(g);

  // Owner of every entity, so the corruption keeps single ownership.
  std::vector<int> owner(plan.entities.size(), -1);
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    for (std::size_t e : plan.buffers[b].members) {
      owner[e] = static_cast<int>(b);
    }
  }
  // Move a feature entity into a *spilled* buffer holding an entity whose
  // lifespan it overlaps. Spilled keeps the race/capacity passes out of the
  // picture; the overlap must be caught by liveness re-derivation alone.
  std::size_t dest = 0, moved = 0;
  bool found = false;
  for (std::size_t b = 0; b < plan.buffers.size() && !found; ++b) {
    if (plan.buffer_on_chip[b] || plan.buffers[b].members.empty()) continue;
    for (std::size_t a : plan.buffers[b].members) {
      for (std::size_t c = 0; c < plan.entities.size() && !found; ++c) {
        if (owner[c] == static_cast<int>(b) || owner[c] < 0) continue;
        if (plan.entities[c].key.source == TensorSource::kWeight) continue;
        if (!plan.entities[a].overlaps(plan.entities[c])) continue;
        dest = b;
        moved = c;
        found = true;
      }
      if (found) break;
    }
  }
  ASSERT_TRUE(found) << "no interfering pair to corrupt";

  core::VirtualBuffer& src = plan.buffers[static_cast<std::size_t>(owner[moved])];
  src.members.erase(std::find(src.members.begin(), src.members.end(), moved));
  plan.buffers[dest].members.push_back(moved);
  plan.buffers[dest].bytes =
      std::max(plan.buffers[dest].bytes, plan.entities[moved].bytes);

  const CheckReport report = run_checks(g, plan);
  const Diagnostic* d = find(report, Code::kLifespanOverlap);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->pass, "liveness");
  EXPECT_EQ(d->location.buffer_id, plan.buffers[dest].id);
  expect_errors_only_from(report, "liveness");
}

TEST(CheckLiveness, RecordedIntervalLieIsCaught) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  // Shrink a feature entity's recorded lifespan below what the graph
  // derives from its def/use chain.
  bool found = false;
  for (core::TensorEntity& e : plan.entities) {
    if (e.key.source == TensorSource::kWeight) continue;
    if (e.last_use_step <= e.def_step) continue;
    e.last_use_step = e.def_step;
    found = true;
    break;
  }
  ASSERT_TRUE(found);
  const CheckReport report = run_checks(g, plan);
  const Diagnostic* d = find(report, Code::kLivenessIntervalMismatch);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->pass, "liveness");
}

TEST(CheckLiveness, KeyWithoutATensorGetsAPlaceholderName) {
  // A layer past the graph, or a residual key (GoogLeNet fuses no residual
  // adds): neither names a tensor, and labelling them must not throw.
  auto g = models::build_googlenet();
  const auto bad_layer = static_cast<graph::LayerId>(g.num_layers());
  for (const core::TensorKey key :
       {core::TensorKey{bad_layer, TensorSource::kInput},
        core::TensorKey{0, TensorSource::kResidual}}) {
    AllocationPlan plan = compiled_plan(g);
    plan.entities.front().key = key;
    const CheckReport report = run_checks(g, plan);
    const Diagnostic* d = find(report, Code::kLivenessIntervalMismatch);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->location.tensor, "?");
    EXPECT_EQ(d->message, "? (layer " + std::to_string(key.layer) + " " +
                              core::to_string(key.source) +
                              ") cannot exist on its layer");
  }
}

// ---------------------------------------------------------------------------
// Prefetch pass (§3.2).
// ---------------------------------------------------------------------------

TEST(CheckPrefetch, ForwardEdgeIsACycle) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  std::vector<core::PrefetchEdge> edges = plan.prefetch.edges();
  ASSERT_FALSE(edges.empty());
  // An edge starting at (or after) its target cannot be scheduled: the
  // prefetching dependence graph is no longer a DAG over execution steps.
  core::PrefetchEdge& bad = edges.front();
  bad.start_step = bad.target;
  plan.prefetch = core::PrefetchResult(std::move(edges));

  const CheckReport report = run_checks(g, plan);
  const Diagnostic* d = find(report, Code::kPdgCycle);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->pass, "prefetch");
  EXPECT_EQ(d->location.layer, plan.prefetch.edges().front().target);
}

TEST(CheckPrefetch, MissedDeadlineIsAWarningNotAnError) {
  // resnet50 at int16 streams dozens of weights with fully hidden loads;
  // googlenet holds every weight resident, leaving nothing to corrupt.
  auto g = models::build_by_name("resnet50");
  AllocationPlan plan = compiled_plan(g);
  // Inflate the load time of a streamed on-chip weight past its window:
  // the load can no longer be hidden, so the remainder must stall.
  std::vector<core::PrefetchEdge> edges = plan.prefetch.edges();
  const std::vector<bool> resident = plan.resident_weight_mask(g.num_layers());
  bool found = false;
  for (core::PrefetchEdge& e : edges) {
    if (!plan.state.is_on({e.target, TensorSource::kWeight})) continue;
    if (resident[static_cast<std::size_t>(e.target)]) continue;
    if (!e.fully_hidden()) continue;
    e.load_seconds = e.window_seconds * 2.0 + 1e-6;
    found = true;
    break;
  }
  ASSERT_TRUE(found) << "no fully hidden streamed weight to corrupt";
  plan.prefetch = core::PrefetchResult(std::move(edges));

  const CheckReport report = run_checks(g, plan);
  const Diagnostic* d = find(report, Code::kPrefetchDeadlineMissed);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->pass, "prefetch");
  EXPECT_EQ(report.num_errors(), 0);
  EXPECT_FALSE(report.fails(false));  // warnings pass the default gate
  EXPECT_TRUE(report.fails(true));
}

// ---------------------------------------------------------------------------
// Race pass. The corrupted plan is coherent to every step-based check —
// intervals, windows, capacity all agree — and only replaying the DMA
// against the simulated clock exposes the overlap.
// ---------------------------------------------------------------------------

TEST(CheckRace, EarlyPrefetchIntoSharedBufferRaces) {
  // resnet50's weight buffers time-multiplex several streamed tensors.
  auto g = models::build_by_name("resnet50");
  AllocationPlan plan = compiled_plan(g);
  const hw::PerfModel model(g, plan.design);
  const std::vector<bool> resident = plan.resident_weight_mask(g.num_layers());

  // Find an on-chip buffer time-multiplexing two streamed weights, and
  // start the later load inside the earlier weight's occupancy. The
  // recorded window is updated to match the schedule, so the prefetch
  // pass stays green — only the wall-clock replay can catch this.
  bool found = false;
  for (std::size_t b = 0; b < plan.buffers.size() && !found; ++b) {
    if (!plan.buffer_on_chip[b]) continue;
    std::vector<std::size_t> weights;
    for (std::size_t e : plan.buffers[b].members) {
      const core::TensorEntity& ent = plan.entities[e];
      if (ent.key.source != TensorSource::kWeight) continue;
      if (!plan.state.is_on(ent.key)) continue;
      if (resident[static_cast<std::size_t>(ent.key.layer)]) continue;
      if (plan.prefetch.edge_for(ent.key.layer) == nullptr) continue;
      weights.push_back(e);
    }
    if (weights.size() < 2) continue;
    std::sort(weights.begin(), weights.end(), [&](std::size_t x, std::size_t y) {
      return plan.entities[x].key.layer < plan.entities[y].key.layer;
    });
    const graph::LayerId first_target = plan.entities[weights.front()].key.layer;
    const graph::LayerId later_target = plan.entities[weights.back()].key.layer;

    std::vector<core::PrefetchEdge> edges = plan.prefetch.edges();
    for (core::PrefetchEdge& e : edges) {
      if (e.target != later_target) continue;
      const int new_start = std::max(0, first_target - 1);
      if (new_start >= e.start_step && e.start_step != core::kBeforeExecution) {
        break;  // already starts that early; try another buffer
      }
      e.start_step = new_start;
      double window = 0.0;
      for (int s = new_start; s < later_target; ++s) {
        window += model.timing(s).umm_latency();
      }
      e.window_seconds = window;
      found = true;
      break;
    }
    if (found) plan.prefetch = core::PrefetchResult(std::move(edges));
  }
  ASSERT_TRUE(found) << "no shared streamed-weight buffer to corrupt";

  const CheckReport report = run_checks(g, plan);
  const Diagnostic* d = find(report, Code::kDmaComputeRace);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->pass, "race");
  EXPECT_GE(d->location.buffer_id, 0);
  EXPECT_FALSE(report.has(Code::kPrefetchWindowMismatch));
  EXPECT_FALSE(report.has(Code::kLifespanOverlap));
  expect_errors_only_from(report, "race");
}

// ---------------------------------------------------------------------------
// Capacity pass (§3.3).
// ---------------------------------------------------------------------------

TEST(CheckCapacity, BramOversubscription) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  plan.bram_used = plan.design.device.bram36_total + 1;
  const CheckReport report = run_checks(g, plan);
  ASSERT_TRUE(report.has(Code::kBramOversubscribed));
  expect_errors_only_from(report, "capacity");
}

TEST(CheckCapacity, InflatedBufferBlowsTheBudget) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  bool found = false;
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    if (!plan.buffer_on_chip[b] || plan.buffers[b].members.empty()) continue;
    plan.buffers[b].bytes += std::int64_t{512} << 20;  // +512 MiB
    found = true;
    break;
  }
  ASSERT_TRUE(found);
  const CheckReport report = run_checks(g, plan);
  const Diagnostic* d = find(report, Code::kDnnkCapacityExceeded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->pass, "capacity");
  // The same corruption oversubscribes some execution step too.
  const Diagnostic* step = find(report, Code::kStepCapacityExceeded);
  ASSERT_NE(step, nullptr);
  EXPECT_GE(step->location.step, 0);
  expect_errors_only_from(report, "capacity");
}

// ---------------------------------------------------------------------------
// DNNK pass (§3.3).
// ---------------------------------------------------------------------------

TEST(CheckDnnk, BaselineLatencyLieIsCaught) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  plan.umm_latency_s *= 2.0;
  const CheckReport report = run_checks(g, plan);
  const Diagnostic* d = find(report, Code::kBaselineLatencyMismatch);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->pass, "dnnk");
  expect_errors_only_from(report, "dnnk");
}

TEST(CheckDnnk, LatencyBelowEq1BoundIsCaught) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  plan.est_latency_s = 0.0;  // faster than Eq. 1 allows for this state
  const CheckReport report = run_checks(g, plan);
  ASSERT_TRUE(report.has(Code::kLatencyBelowBound));
  expect_errors_only_from(report, "dnnk");
}

TEST(CheckDnnk, ZeroGainNotesNameTheirTensorByTheOneRule) {
  // The note's message names the tensor's source ("on-chip wt tensor of
  // ..."); its location names the tensor as core::tensor_name does.
  auto g = models::build_googlenet();
  const CheckReport report = run_checks(g, compiled_plan(g));
  int notes = 0;
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.code != Code::kZeroGainGrant) continue;
    ++notes;
    const std::string prefix = "on-chip ";
    const std::string source = d.message.substr(
        prefix.size(), d.message.find(' ', prefix.size()) - prefix.size());
    int matched = 0;
    for (int s = 0; s < core::kNumSources; ++s) {
      const core::TensorKey key{d.location.layer, static_cast<TensorSource>(s)};
      if (core::to_string(key.source) != source) continue;
      ++matched;
      EXPECT_EQ(d.location.tensor, core::tensor_name(g, key)) << d.message;
    }
    EXPECT_EQ(matched, 1) << d.message;
  }
  EXPECT_GT(notes, 0);
}

// ---------------------------------------------------------------------------
// Emitters.
// ---------------------------------------------------------------------------

TEST(CheckEmit, TextJsonAndSarif) {
  auto g = lcmm::testing::chain3();
  AllocationPlan plan = compiled_plan(g, hw::Precision::kInt8);
  CheckedPlan run;
  run.label = {"chain3", "lcmm", "int8"};
  run.report = run_checks(g, plan);
  EXPECT_EQ(run.report.num_errors(), 0);

  const std::string text = to_text(run.report, run.label);
  EXPECT_NE(text.find("chain3/lcmm/int8"), std::string::npos);

  const std::string json = to_json(run.report, run.label).dump();
  EXPECT_NE(json.find("lcmm-check-v1"), std::string::npos);

  const std::vector<CheckedPlan> runs{run};
  const std::string sarif = to_sarif(runs).dump();
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  // The full rule table rides along even for a clean run.
  EXPECT_NE(sarif.find("LCMM-E102"), std::string::npos);
}

TEST(CheckEmit, DiagnosticsCarryTheirLocation) {
  auto g = models::build_googlenet();
  AllocationPlan plan = compiled_plan(g);
  plan.resident_weights.push_back(9999);
  CheckedPlan run;
  run.label = {"googlenet", "lcmm", "int16"};
  run.report = run_checks(g, plan);
  const std::string text = to_text(run.report, run.label);
  EXPECT_NE(text.find("LCMM-E007"), std::string::npos);
  const std::vector<CheckedPlan> runs{run};
  const std::string sarif = to_sarif(runs).dump();
  EXPECT_NE(sarif.find("\"error\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Integration: every registered model, both designs, checks clean.
// ---------------------------------------------------------------------------

TEST(CheckIntegration, AllRegisteredModelsCheckClean) {
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  for (const std::string& name : models::model_names()) {
    auto g = models::build_by_name(name);
    const AllocationPlan umm = compiler.compile_umm(g);
    const CheckReport umm_report = run_checks(g, umm);
    EXPECT_EQ(umm_report.num_errors(), 0)
        << name << "/umm: " << to_text(umm_report);

    const CheckReport report = run_checks(g, compiler.compile(g));
    EXPECT_EQ(report.num_errors(), 0) << name << "/lcmm: " << to_text(report);
  }
}

TEST(CheckIntegration, RandomGraphsCheckClean) {
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    auto g = models::random_graph(seed);
    const AllocationPlan plan = compiler.compile(g);
    const CheckReport report = run_checks(g, plan);
    EXPECT_EQ(report.num_errors(), 0)
        << "seed " << seed << ": " << to_text(report);
  }
}

}  // namespace
}  // namespace lcmm::check
