// Differential tests: the interval coloring and the cursor timeline
// against the quadratic references in oracle/scan.hpp, which they
// replaced. Every color, every candidate count and every double must be
// bit-equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>

#include "core/lcmm.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "oracle/coloring.hpp"
#include "oracle/scan.hpp"
#include "util/rng.hpp"

namespace lcmm {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_coloring(const core::InterferenceGraph& graph,
                          const std::string& label) {
  obs::StatsSession session;
  const core::ColoringResult fast = core::color_min_total_size(graph);
  const oracle::ScanColoring scan = oracle::scan_color_min_total_size(graph);
  EXPECT_EQ(fast.color_of, scan.result.color_of) << label;
  EXPECT_EQ(fast.num_colors, scan.result.num_colors) << label;
  EXPECT_EQ(fast.total_bytes, scan.result.total_bytes) << label;
  EXPECT_EQ(session.stats().counter("coloring.candidates_tried"),
            scan.candidates_tried)
      << label;
  // The premise of the library's stop: sizes never rise with the index.
  EXPECT_TRUE(std::is_sorted(scan.color_size.begin(), scan.color_size.end(),
                             std::greater<>()))
      << label;
  EXPECT_TRUE(oracle::coloring_is_valid(graph, fast)) << label;
}

void expect_same_sim(const hw::PerfModel& model,
                     const core::AllocationPlan& plan,
                     const std::string& label) {
  const sim::SimResult fast = sim::simulate(model, plan);
  const sim::SimResult scan = oracle::scan_simulate(model, plan);
  EXPECT_EQ(bits(fast.total_s), bits(scan.total_s)) << label;
  EXPECT_EQ(bits(fast.total_stall_s), bits(scan.total_stall_s)) << label;
  EXPECT_EQ(bits(fast.hidden_prefetch_s), bits(scan.hidden_prefetch_s))
      << label;
  ASSERT_EQ(fast.layers.size(), scan.layers.size()) << label;
  for (std::size_t i = 0; i < fast.layers.size(); ++i) {
    const sim::LayerExecution& a = fast.layers[i];
    const sim::LayerExecution& b = scan.layers[i];
    EXPECT_EQ(a.layer, b.layer) << label << " step " << i;
    for (const auto field :
         {&sim::LayerExecution::start_s, &sim::LayerExecution::end_s,
          &sim::LayerExecution::compute_s, &sim::LayerExecution::if_s,
          &sim::LayerExecution::wt_s, &sim::LayerExecution::of_s,
          &sim::LayerExecution::stall_s}) {
      EXPECT_EQ(bits(a.*field), bits(b.*field)) << label << " step " << i;
    }
  }
}

// Every zoo net x precision x device: the plan's entities colored both
// ways, and the shipped plan simulated both ways.
class DifferentialZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(DifferentialZoo, ColoringAndTimelineMatchTheScans) {
  const graph::ComputationGraph g = models::build_by_name(GetParam());
  for (const hw::FpgaDevice& device :
       {hw::FpgaDevice::vu9p(), hw::FpgaDevice::zu9eg(), hw::FpgaDevice::u250()}) {
    for (hw::Precision p : hw::kAllPrecisions) {
      const std::string label =
          GetParam() + " " + hw::to_string(p) + " " + device.name;
      core::LcmmCompiler compiler(device, p);
      const core::AllocationPlan plan = compiler.compile(g);
      expect_same_coloring(core::InterferenceGraph(plan.entities), label);
      expect_same_sim(hw::PerfModel(g, plan.design), plan, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, DifferentialZoo, ::testing::ValuesIn(models::model_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Seeded entity sets on a short step range, so touching and nested
// lifespans, single-step and zero-byte entities and equal sizes are
// common; about half the sets carry false edges.
TEST(DifferentialColoring, RandomEntitySetsMatchTheScan) {
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    util::Rng rng(seed);
    const int n = static_cast<int>(rng.next_int(1, 60));
    const int steps = static_cast<int>(rng.next_int(1, 24));
    std::vector<core::TensorEntity> entities;
    for (int i = 0; i < n; ++i) {
      core::TensorEntity e;
      e.key = {i, core::TensorSource::kInput};
      e.bytes = rng.next_bool(0.1) ? 0 : 64 * rng.next_int(1, 8);
      e.def_step = static_cast<int>(rng.next_int(0, steps - 1));
      e.last_use_step = rng.next_bool(0.25)
                            ? e.def_step
                            : static_cast<int>(rng.next_int(e.def_step, steps - 1));
      entities.push_back(e);
    }
    core::InterferenceGraph graph(std::move(entities));
    if (rng.next_bool()) {
      const int false_edges = static_cast<int>(rng.next_int(1, n));
      for (int k = 0; k < false_edges && n >= 2; ++k) {
        const auto a = static_cast<std::size_t>(rng.next_below(n));
        const auto b = static_cast<std::size_t>(rng.next_below(n));
        if (a != b) graph.add_false_edge(a, b);
      }
    }
    expect_same_coloring(graph, "seed " + std::to_string(seed));
  }
}

core::TensorEntity step_entity(int id, std::int64_t bytes, int def, int last) {
  return {{id, core::TensorSource::kInput}, bytes, def, last};
}

// Step sets are 64 steps a word, counted from the smallest def step (0
// here): lifespans that end at 62, 63 and 64 and spans that cross 63->64
// and 127->128, so each word's first and last bit decide a fit.
TEST(DifferentialColoring, WordBoundarySpansMatchTheScan) {
  std::vector<core::TensorEntity> entities = {
      step_entity(0, 900, 0, 63),     step_entity(1, 880, 64, 64),
      step_entity(2, 860, 63, 63),    step_entity(3, 840, 0, 62),
      step_entity(4, 820, 63, 64),    step_entity(5, 800, 64, 127),
      step_entity(6, 780, 128, 128),  step_entity(7, 760, 127, 128),
      step_entity(8, 740, 0, 64),     step_entity(9, 720, 65, 130),
      step_entity(10, 700, 62, 62),   step_entity(11, 680, 127, 127),
      step_entity(12, 660, 1, 126),   step_entity(13, 640, 129, 191),
      step_entity(14, 620, 0, 0),     step_entity(15, 600, 191, 191),
      step_entity(16, 580, 62, 63),   step_entity(17, 560, 128, 190)};
  expect_same_coloring(core::InterferenceGraph(entities), "boundaries");
  // The same spans at equal sizes: every color is asked on every fit.
  for (core::TensorEntity& e : entities) e.bytes = 64;
  expect_same_coloring(core::InterferenceGraph(entities), "equal sizes");
}

// The smallest def step is kBeforeExecution, so step s is bit s + 1: the
// word boundary falls between steps 62 and 63.
TEST(DifferentialColoring, BeforeExecutionSpansMatchTheScan) {
  const int before = core::kBeforeExecution;
  core::InterferenceGraph graph({step_entity(0, 500, before, before),
                                 step_entity(1, 480, 0, 62),
                                 step_entity(2, 460, 63, 63),
                                 step_entity(3, 440, before, 0),
                                 step_entity(4, 420, 62, 126),
                                 step_entity(5, 400, before, 63),
                                 step_entity(6, 380, 127, 127),
                                 step_entity(7, 360, 63, 127)});
  expect_same_coloring(graph, "before execution");
}

// A false edge keeps two entities with disjoint lifespans apart, whether
// the partner was colored before the entity or is colored after it.
TEST(DifferentialColoring, FalseEdgePartnersMatchTheScan) {
  // 0 opens color 0; 1 fits it by steps but its partner 0 is already there.
  core::InterferenceGraph colored({step_entity(0, 300, 0, 1),
                                   step_entity(1, 200, 2, 3)});
  colored.add_false_edge(0, 1);
  expect_same_coloring(colored, "partner colored");
  EXPECT_NE(core::color_min_total_size(colored).color_of[1], 0);

  // 1 joins color 0 while its partner 2 is uncolored; 2 then finds 1
  // there and opens color 1, though its steps are free in color 0.
  core::InterferenceGraph uncolored({step_entity(0, 300, 0, 1),
                                     step_entity(1, 200, 2, 3),
                                     step_entity(2, 100, 4, 5)});
  uncolored.add_false_edge(1, 2);
  expect_same_coloring(uncolored, "partner uncolored");
  const core::ColoringResult r = core::color_min_total_size(uncolored);
  EXPECT_EQ(r.color_of, (std::vector<int>{0, 0, 1}));
}

// More than 64 tensors live at once over a 300-step range, so colors'
// step sets span several words; about half the sets carry false edges.
TEST(DifferentialColoring, ManyLiveTensorsMatchTheScan) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const int n = static_cast<int>(rng.next_int(200, 260));
    std::vector<core::TensorEntity> entities;
    for (int i = 0; i < n; ++i) {
      const int def = static_cast<int>(rng.next_int(-1, 180));
      const int last = rng.next_bool(0.5)
                           ? static_cast<int>(rng.next_int(def, 299))
                           : std::min(299, def + static_cast<int>(rng.next_int(0, 70)));
      entities.push_back(step_entity(i, 64 * rng.next_int(0, 12), def, last));
    }
    int max_live = 0;
    for (int step = -1; step < 300; ++step) {
      const auto live = std::count_if(
          entities.begin(), entities.end(), [&](const core::TensorEntity& e) {
            return e.def_step <= step && step <= e.last_use_step;
          });
      max_live = std::max(max_live, static_cast<int>(live));
    }
    ASSERT_GT(max_live, 64) << "seed " << seed;
    core::InterferenceGraph graph(std::move(entities));
    if (rng.next_bool()) {
      for (int k = 0; k < 40; ++k) {
        const auto a = static_cast<std::size_t>(rng.next_below(n));
        const auto b = static_cast<std::size_t>(rng.next_below(n));
        if (a != b) graph.add_false_edge(a, b);
      }
    }
    expect_same_coloring(graph, "seed " + std::to_string(seed));
  }
}

// Seeded random DAGs whose compiled prefetch edges are perturbed: loads
// zeroed or inflated, windows moved to kBeforeExecution, past the target
// or anywhere before it, and weights made resident, so requests open,
// stall and finish in every order.
TEST(DifferentialTimeline, PerturbedRandomPlansMatchTheScan) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const graph::ComputationGraph g = models::random_graph(seed);
    core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(),
                                seed % 2 ? hw::Precision::kInt8
                                         : hw::Precision::kInt16);
    core::AllocationPlan plan = compiler.compile(g);
    util::Rng rng(seed ^ 0x5CA9);
    const auto layers = static_cast<std::int64_t>(g.num_layers());
    std::vector<core::PrefetchEdge> edges;
    for (const graph::Layer& layer : g.layers()) {
      if (!layer.is_conv()) continue;
      if (rng.next_bool(0.7)) {
        plan.state.set({layer.id, core::TensorSource::kWeight}, true);
      }
      if (rng.next_bool(0.15)) {
        plan.resident_weights.push_back(layer.id);
        continue;
      }
      if (rng.next_bool(0.2)) continue;  // no edge: the whole load stalls
      core::PrefetchEdge e;
      e.target = layer.id;
      const double kind = rng.next_double();
      e.start_step = kind < 0.25   ? core::kBeforeExecution
                     : kind < 0.35 ? static_cast<int>(rng.next_int(
                                         layer.id, layers - 1))
                                   : static_cast<int>(rng.next_int(
                                         0, std::max(0, layer.id - 1)));
      e.load_seconds = rng.next_bool(0.15) ? 0.0 : rng.next_double() * 4e-4;
      edges.push_back(e);
    }
    plan.prefetch = core::PrefetchResult(std::move(edges));
    expect_same_sim(hw::PerfModel(g, plan.design), plan,
                    "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace lcmm
