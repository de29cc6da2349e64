#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <random>

#include "core/coloring.hpp"
#include "core/dnnk.hpp"
#include "core/liveness.hpp"
#include "core/prefetch.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "resil/error.hpp"
#include "test_graphs.hpp"

namespace lcmm::core {
namespace {

using lcmm::testing::small_design;

/// A chain of 1x1 convs on fat feature maps: every layer memory bound.
graph::ComputationGraph fat_chain(int n) {
  graph::ComputationGraph g("fat_chain");
  auto x = g.add_input("in", {256, 28, 28});
  for (int i = 0; i < n; ++i) {
    x = g.add_conv("c" + std::to_string(i), x, {256, 1, 1, 1, 0, 0});
  }
  g.validate();
  return g;
}

/// An instance with singleton virtual buffers over input-feature entities
/// only — one tensor per layer, so knapsack values are independent and the
/// exact search is a true optimum oracle. Heap members keep the internal
/// cross-references (tables -> model -> graph) stable.
struct Instance {
  std::unique_ptr<graph::ComputationGraph> graph_ptr;
  std::unique_ptr<hw::PerfModel> model_ptr;
  std::unique_ptr<LatencyTables> tables_ptr;
  std::unique_ptr<InterferenceGraph> ig_ptr;
  std::vector<VirtualBuffer> buffers;

  const graph::ComputationGraph& graph = *graph_ptr;
  LatencyTables& tables = *tables_ptr;
  InterferenceGraph& ig = *ig_ptr;
};

Instance singleton_instance(int n) {
  auto g = std::make_unique<graph::ComputationGraph>(fat_chain(n));
  // Wide SIMD makes every 1x1 layer decisively input-transfer bound.
  hw::AcceleratorDesign design = small_design();
  design.array = {16, 8, 16};
  auto model = std::make_unique<hw::PerfModel>(*g, design);
  auto tables = std::make_unique<LatencyTables>(*model);
  LivenessOptions opt;
  opt.include_compute_bound = true;
  std::vector<TensorEntity> entities;
  for (const TensorEntity& e : build_feature_entities(*model, opt)) {
    if (e.key.source == TensorSource::kInput) entities.push_back(e);
  }
  auto ig = std::make_unique<InterferenceGraph>(std::move(entities));
  std::vector<VirtualBuffer> buffers;
  for (std::size_t i = 0; i < ig->size(); ++i) {
    VirtualBuffer b;
    b.id = static_cast<int>(i);
    b.bytes = ig->entities()[i].bytes;
    b.members = {i};
    buffers.push_back(b);
  }
  return Instance{std::move(g), std::move(model), std::move(tables),
                  std::move(ig), std::move(buffers)};
}

TEST(Dnnk, ZeroCapacityAllocatesNothing) {
  auto inst = singleton_instance(4);
  const auto r = dnnk_allocate(inst.ig, inst.buffers, inst.tables, 0);
  EXPECT_EQ(r.bytes_used, 0);
  EXPECT_DOUBLE_EQ(r.gain_s, 0.0);
  for (bool on : r.buffer_on_chip) EXPECT_FALSE(on);
}

TEST(Dnnk, UnlimitedCapacityTakesEveryUsefulBuffer) {
  auto inst = singleton_instance(4);
  const auto r = dnnk_allocate(inst.ig, inst.buffers, inst.tables,
                               std::int64_t{1} << 40);
  for (std::size_t b = 0; b < inst.buffers.size(); ++b) {
    EXPECT_TRUE(r.buffer_on_chip[b]);
  }
  EXPECT_GT(r.gain_s, 0.0);
}

TEST(Dnnk, CapacityRespectedAcrossSweep) {
  auto inst = singleton_instance(6);
  const AllocatorOptions opt;
  for (std::int64_t cap = 0; cap < std::int64_t{4} << 20;
       cap += std::int64_t{1} << 18) {
    const auto r = dnnk_allocate(inst.ig, inst.buffers, inst.tables, cap, opt);
    EXPECT_LE(r.bytes_used, (cap / opt.granularity_bytes) * opt.granularity_bytes +
                                0);  // quantized capacity
    EXPECT_GE(r.gain_s, 0.0);
  }
}

TEST(Dnnk, MatchesExactOnIndependentItems) {
  auto inst = singleton_instance(6);
  // Sweep capacities; with independent singleton items DNNK reduces to the
  // classic 0/1 knapsack DP, which is optimal at block granularity.
  for (std::int64_t cap :
       {std::int64_t{1} << 19, std::int64_t{1} << 20, std::int64_t{3} << 20}) {
    const auto dp = dnnk_allocate(inst.ig, inst.buffers, inst.tables, cap);
    const auto best = exact_allocate(inst.ig, inst.buffers, inst.tables, cap);
    EXPECT_NEAR(dp.gain_s, best.gain_s, best.gain_s * 1e-9 + 1e-15)
        << "capacity " << cap;
  }
}

TEST(Dnnk, AtLeastAsGoodAsGreedyOnChain) {
  auto inst = singleton_instance(8);
  for (std::int64_t cap : {std::int64_t{1} << 20, std::int64_t{2} << 20}) {
    const auto dp = dnnk_allocate(inst.ig, inst.buffers, inst.tables, cap);
    const auto greedy = greedy_allocate(inst.ig, inst.buffers, inst.tables, cap);
    EXPECT_GE(dp.gain_s, greedy.gain_s - 1e-15);
  }
}

TEST(Dnnk, GainIsTrueLatencyDelta) {
  auto inst = singleton_instance(5);
  const auto r = dnnk_allocate(inst.ig, inst.buffers, inst.tables,
                               std::int64_t{2} << 20);
  const OnChipState umm(inst.graph.num_layers());
  const double delta = inst.tables.total_latency(umm) -
                       inst.tables.total_latency(r.state);
  EXPECT_NEAR(r.gain_s, delta, 1e-15);
}

TEST(Dnnk, PivotCompensationWithinOneLayer) {
  // One layer, two entities (if and of) in separate buffers. The realized
  // total gain must equal the Eq. 1 node delta, not the sum of standalone
  // gains (which would double count below the pivot).
  graph::ComputationGraph g = fat_chain(1);
  hw::PerfModel model(g, small_design());
  LatencyTables tables(model);
  LivenessOptions opt;
  opt.include_compute_bound = true;
  InterferenceGraph ig(build_feature_entities(model, opt));
  std::vector<VirtualBuffer> buffers;
  for (std::size_t i = 0; i < ig.size(); ++i) {
    buffers.push_back(VirtualBuffer{static_cast<int>(i), ig.entities()[i].bytes,
                                    {i}});
  }
  const auto r =
      dnnk_allocate(ig, buffers, tables, std::int64_t{1} << 40);
  const std::uint8_t full_mask = r.state.layer_mask(0);
  const double node_delta =
      tables.node_latency(0, 0) - tables.node_latency(0, full_mask);
  EXPECT_NEAR(r.gain_s, node_delta, 1e-15);
}

TEST(Dnnk, PrefersHigherValuePerByte) {
  // Two singleton buffers, capacity for one: DNNK must take the one whose
  // true gain is larger when sizes are equal.
  auto inst = singleton_instance(2);
  ASSERT_EQ(inst.buffers.size(), 2u);
  const std::int64_t cap = std::max(inst.buffers[0].bytes, inst.buffers[1].bytes);
  const auto r = dnnk_allocate(inst.ig, inst.buffers, inst.tables, cap);
  const auto best = exact_allocate(inst.ig, inst.buffers, inst.tables, cap);
  EXPECT_NEAR(r.gain_s, best.gain_s, 1e-12);
}

TEST(Dnnk, QuantizationRoundsUp) {
  AllocatorOptions opt;
  opt.granularity_bytes = 100;
  EXPECT_EQ(quantized_units(1, opt), 1);
  EXPECT_EQ(quantized_units(100, opt), 1);
  EXPECT_EQ(quantized_units(101, opt), 2);
  opt.granularity_bytes = 0;
  EXPECT_THROW(quantized_units(1, opt), std::invalid_argument);
}

TEST(Dnnk, ZeroGranularityIsATypedError) {
  // Checked before the capacity is divided into DP columns.
  auto inst = singleton_instance(2);
  AllocatorOptions opt;
  opt.granularity_bytes = 0;
  try {
    dnnk_allocate(inst.ig, inst.buffers, inst.tables, std::int64_t{1} << 20, opt);
    FAIL() << "expected an OptionError";
  } catch (const resil::OptionError& e) {
    EXPECT_EQ(e.code(), resil::Code::kBadOptions);
    EXPECT_EQ(e.pass(), "pass.dnnk");
  }
  opt.granularity_bytes = -4096;
  EXPECT_THROW(dnnk_allocate(inst.ig, inst.buffers, inst.tables, 1 << 20, opt),
               resil::OptionError);
}

/// The DP with every member mask composed inside each cell, as Alg. 1 reads
/// when transcribed directly: per cell, each member ORs in the sources that
/// earlier buffers took at this column; the cell sums the members' marginal
/// gains in member order and adds that sum once. A buffer holds at most one
/// tensor of a layer, so no mask has a source from its own buffer.
/// dnnk_allocate builds the column-independent parts once per row and sums
/// once per run, and must make the same decisions from the same doubles.
AllocatorResult per_cell_reference(const InterferenceGraph& graph,
                                   const std::vector<VirtualBuffer>& buffers,
                                   const LatencyTables& tables,
                                   std::int64_t capacity_bytes,
                                   const AllocatorOptions& options = {}) {
  const std::size_t n = buffers.size();
  const std::int64_t w_cap = capacity_bytes / options.granularity_bytes;
  const std::size_t width = static_cast<std::size_t>(w_cap) + 1;
  std::vector<std::array<int, kNumSources>> buffer_of(
      tables.model().graph().num_layers(), {-1, -1, -1, -1});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t e : buffers[b].members) {
      const TensorKey key = graph.entities()[e].key;
      buffer_of[static_cast<std::size_t>(key.layer)]
               [static_cast<int>(key.source)] = static_cast<int>(b);
    }
  }
  std::vector<std::vector<std::uint8_t>> pbuf(n, std::vector<std::uint8_t>(width, 0));
  std::vector<double> prev(width, 0.0);
  std::vector<double> curr(width, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t size_units = quantized_units(buffers[i].bytes, options);
    for (std::size_t j = 0; j < width; ++j) {
      if (static_cast<std::int64_t>(j) < size_units) {
        curr[j] = prev[j];
        continue;
      }
      double gain = 0.0;
      for (std::size_t e : buffers[i].members) {
        const TensorKey key = graph.entities()[e].key;
        std::uint8_t mask = 0;
        for (int s = 0; s < kNumSources; ++s) {
          const int owner = buffer_of[static_cast<std::size_t>(key.layer)][s];
          if (owner >= 0 && static_cast<std::size_t>(owner) < i &&
              pbuf[static_cast<std::size_t>(owner)][j]) {
            mask = static_cast<std::uint8_t>(mask | (1u << s));
          }
        }
        gain += tables.marginal_gain(key.layer, key.source, mask);
      }
      const double l1 = prev[j - static_cast<std::size_t>(size_units)] + gain;
      if (prev[j] > l1) {
        curr[j] = prev[j];
      } else {
        curr[j] = l1;
        pbuf[i][j] = 1;
      }
    }
    std::swap(prev, curr);
  }
  std::vector<bool> selection(n, false);
  std::int64_t j = w_cap;
  for (std::size_t i = n; i-- > 0;) {
    if (pbuf[i][static_cast<std::size_t>(j)]) {
      selection[i] = true;
      j -= quantized_units(buffers[i].bytes, options);
    }
  }
  return evaluate_selection(graph, buffers, tables, selection, options);
}

void expect_matches_per_cell_reference(const InterferenceGraph& ig,
                                       const std::vector<VirtualBuffer>& buffers,
                                       const LatencyTables& tables,
                                       std::int64_t capacity,
                                       const std::string& label,
                                       const AllocatorOptions& options = {}) {
  const AllocatorResult got =
      dnnk_allocate(ig, buffers, tables, capacity, options);
  const AllocatorResult want =
      per_cell_reference(ig, buffers, tables, capacity, options);
  EXPECT_EQ(got.buffer_on_chip, want.buffer_on_chip) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.gain_s),
            std::bit_cast<std::uint64_t>(want.gain_s))
      << label << ": " << got.gain_s << " vs " << want.gain_s;
  EXPECT_EQ(got.bytes_used, want.bytes_used) << label;
  ASSERT_EQ(got.state.num_layers(), want.state.num_layers()) << label;
  for (std::size_t l = 0; l < got.state.num_layers(); ++l) {
    const auto layer = static_cast<graph::LayerId>(l);
    EXPECT_EQ(got.state.layer_mask(layer), want.state.layer_mask(layer))
        << label << " layer " << l;
  }
}

/// Colored buffers over the compile path's entities (features + prefetched
/// weights) of `graph` under a fixed design on `device`.
Instance colored_instance(const graph::ComputationGraph& graph,
                          const hw::FpgaDevice& device, hw::Precision precision) {
  auto g = std::make_unique<graph::ComputationGraph>(graph);
  hw::AcceleratorDesign design = small_design(precision);
  design.device = device;
  auto model = std::make_unique<hw::PerfModel>(*g, design);
  auto tables = std::make_unique<LatencyTables>(*model);
  LivenessOptions liveness;
  liveness.include_compute_bound = true;
  std::vector<TensorEntity> entities = build_feature_entities(*model, liveness);
  for (TensorEntity& e : build_weight_entities(
           *model, build_prefetch_schedule(*model, liveness))) {
    entities.push_back(std::move(e));
  }
  auto ig = std::make_unique<InterferenceGraph>(std::move(entities));
  std::vector<VirtualBuffer> buffers =
      build_virtual_buffers(*ig, color_min_total_size(*ig));
  return Instance{std::move(g), std::move(model), std::move(tables),
                  std::move(ig), std::move(buffers)};
}

/// Sum of the buffers' quantized sizes, in DP units.
std::int64_t total_units(const std::vector<VirtualBuffer>& buffers,
                         const AllocatorOptions& options) {
  std::int64_t units = 0;
  for (const VirtualBuffer& b : buffers) units += quantized_units(b.bytes, options);
  return units;
}

/// Checks dnnk_allocate against the per-cell reference at the all-fit
/// boundary (one unit below, at and one unit above the buffers' total
/// size) and at `extra_capacity`, and that it skips the DP exactly when
/// every buffer fits.
void check_all_fit_boundary(const Instance& inst, std::int64_t extra_capacity,
                            const std::string& label,
                            const AllocatorOptions& options = {}) {
  const std::int64_t units = total_units(inst.buffers, options);
  const std::int64_t unit = options.granularity_bytes;
  for (std::int64_t capacity :
       {(units - 1) * unit, units * unit, (units + 1) * unit, extra_capacity}) {
    if (capacity < 0) continue;
    const std::string at = label + " capacity " + std::to_string(capacity);
    obs::StatsSession session;
    expect_matches_per_cell_reference(inst.ig, inst.buffers, inst.tables,
                                      capacity, at, options);
    const bool fits = units <= capacity / unit;
    const obs::CompileStats& stats = session.stats();
    EXPECT_EQ(stats.counter("dnnk.fits_all"), fits ? 1 : 0) << at;
    EXPECT_EQ(stats.counter("dnnk.dp_cells"),
              fits ? 0
                   : static_cast<std::int64_t>(inst.buffers.size()) *
                         (capacity / unit + 1))
        << at;
  }
}

/// Checks dnnk_allocate against the per-cell reference on the colored
/// buffers of `graph` at three fractions of the total buffer size, at the
/// all-fit boundary and at the device's SRAM size. Returns the number of
/// multi-member buffers exercised.
int check_colored_buffers(const graph::ComputationGraph& graph,
                          const hw::FpgaDevice& device, hw::Precision precision,
                          const std::string& label,
                          const AllocatorOptions& options = {}) {
  const Instance inst = colored_instance(graph, device, precision);
  const std::int64_t total = total_buffer_bytes(inst.buffers);
  for (std::int64_t capacity : {total / 10, total / 3, total * 2 / 3}) {
    expect_matches_per_cell_reference(
        inst.ig, inst.buffers, inst.tables, capacity,
        label + " capacity " + std::to_string(capacity), options);
  }
  check_all_fit_boundary(inst, device.sram_bytes_total(), label, options);
  return static_cast<int>(std::count_if(
      inst.buffers.begin(), inst.buffers.end(),
      [](const VirtualBuffer& b) { return b.members.size() > 1; }));
}

TEST(Dnnk, AllFitBoundaryWithZeroByteBuffersMatchesPerCellReference) {
  // Colored buffers of small random graphs with about a quarter of the
  // buffers emptied to zero bytes (zero DP units): a zero-size row takes
  // at every column, and the shortcut must agree with the DP on them too.
  AllocatorOptions fine;
  fine.granularity_bytes = 4096;
  int zero = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Instance inst = colored_instance(models::random_graph(seed),
                                     hw::FpgaDevice::vu9p(), hw::Precision::kInt8);
    std::mt19937_64 rng(seed);
    for (VirtualBuffer& b : inst.buffers) {
      if (rng() % 4 == 0) {
        b.bytes = 0;
        ++zero;
      }
    }
    const std::int64_t half = total_buffer_bytes(inst.buffers) / 2;
    check_all_fit_boundary(inst, half, "random_graph seed " + std::to_string(seed),
                           fine);
  }
  EXPECT_GT(zero, 0);
}

class DnnkRowPrecompute : public ::testing::TestWithParam<std::string> {};

TEST_P(DnnkRowPrecompute, MatchesPerCellReferenceOnColoredBuffers) {
  const graph::ComputationGraph graph = models::build_by_name(GetParam());
  int shared = 0;
  for (hw::Precision p :
       {hw::Precision::kInt8, hw::Precision::kInt16, hw::Precision::kFp32}) {
    for (const hw::FpgaDevice& device :
         {hw::FpgaDevice::vu9p(), hw::FpgaDevice::zu9eg(), hw::FpgaDevice::u250()}) {
      shared += check_colored_buffers(graph, device, p,
                                      GetParam() + " " + hw::to_string(p) + " " +
                                          device.name);
    }
  }
  EXPECT_GT(shared, 0) << "no multi-member buffer exercised";
}

INSTANTIATE_TEST_SUITE_P(Zoo, DnnkRowPrecompute,
                         ::testing::ValuesIn(models::model_names()));

TEST(Dnnk, MatchesPerCellReferenceOnRandomGraphs) {
  // The random graphs are small; a 4 KiB granularity gives their DP tens to
  // hundreds of columns instead of a handful of URAM blocks.
  AllocatorOptions fine;
  fine.granularity_bytes = 4096;
  int shared = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    shared += check_colored_buffers(models::random_graph(seed),
                                    hw::FpgaDevice::vu9p(), hw::Precision::kInt8,
                                    "random_graph seed " + std::to_string(seed),
                                    fine);
  }
  EXPECT_GT(shared, 0) << "no multi-member buffer exercised";
}

/// The entity of `source` at `layer`.
TensorEntity stream_entity(graph::LayerId layer, TensorSource source,
                           std::int64_t bytes) {
  return {{layer, source}, bytes};
}

constexpr std::uint8_t bit(TensorSource source) {
  return static_cast<std::uint8_t>(1u << static_cast<int>(source));
}

TEST(Dnnk, MemberMaskComposesSourcesOfTwoEarlierBuffers) {
  // Layer 0 is a fused-residual 1x1 conv whose input, residual and output
  // streams all exceed its compute time under this design, so its
  // residual's gain depends on both the input's and the output's bit.
  // Buffers 0 and 1 hold its output and input; buffer 2 holds its residual
  // beside layer 2's weight, so in row 2 the residual's mask takes one bit
  // from each of two earlier buffers' picks at the column. Singleton
  // buffers over the streams of a few differently shaped layers compete for
  // the same capacity, so the composed value decides picks across the sweep.
  graph::ComputationGraph g("residual_fixture");
  auto x = g.add_input("in", {64, 14, 14});
  x = g.add_conv("res", x, {64, 1, 1, 1, 0, 0}, /*residual=*/x);
  x = g.add_conv("wide", x, {128, 1, 1, 1, 0, 0});
  x = g.add_conv("narrow", x, {32, 3, 3, 1, 1, 1});
  g.add_conv("expand", x, {256, 1, 1, 1, 0, 0});
  g.validate();
  hw::AcceleratorDesign design = small_design();
  design.array = {64, 16, 32};
  const hw::PerfModel model(g, design);
  const LatencyTables tables(model);
  const std::uint8_t in = bit(TensorSource::kInput);
  const std::uint8_t out = bit(TensorSource::kOutput);
  const double both = tables.marginal_gain(0, TensorSource::kResidual, in | out);
  ASSERT_NE(both, tables.marginal_gain(0, TensorSource::kResidual, in));
  ASSERT_NE(both, tables.marginal_gain(0, TensorSource::kResidual, out));

  constexpr std::int64_t kUnit = 4096;
  std::vector<TensorEntity> entities;
  std::vector<VirtualBuffer> buffers;
  const auto add_buffer =
      [&](std::int64_t bytes,
          std::vector<std::pair<graph::LayerId, TensorSource>> streams) {
        VirtualBuffer b{static_cast<int>(buffers.size()), bytes, {}};
        for (const auto& [layer, source] : streams) {
          entities.push_back(stream_entity(layer, source, bytes));
          b.members.push_back(entities.size() - 1);
        }
        buffers.push_back(b);
      };
  add_buffer(2 * kUnit, {{0, TensorSource::kOutput}});
  add_buffer(3 * kUnit, {{0, TensorSource::kInput}});
  add_buffer(2 * kUnit, {{0, TensorSource::kResidual}, {2, TensorSource::kWeight}});
  for (graph::LayerId layer = 1; layer < 4; ++layer) {
    for (TensorSource source : {TensorSource::kInput, TensorSource::kWeight,
                                TensorSource::kOutput}) {
      if (layer == 2 && source == TensorSource::kWeight) continue;
      add_buffer((1 + (layer + static_cast<int>(source)) % 3) * kUnit,
                 {{layer, source}});
    }
  }
  const InterferenceGraph ig(std::move(entities));
  AllocatorOptions fine;
  fine.granularity_bytes = kUnit;
  const std::int64_t total = total_buffer_bytes(buffers);
  for (std::int64_t capacity = 0; capacity <= total; capacity += kUnit) {
    expect_matches_per_cell_reference(ig, buffers, tables, capacity,
                                      "capacity " + std::to_string(capacity), fine);
  }
  // With room for every buffer, the three layer-0 buffers are taken: the
  // layer's input, residual and output are on chip.
  const auto all = dnnk_allocate(ig, buffers, tables, total, fine);
  EXPECT_TRUE(all.buffer_on_chip[0]);
  EXPECT_TRUE(all.buffer_on_chip[1]);
  EXPECT_TRUE(all.buffer_on_chip[2]);
  EXPECT_EQ(all.state.layer_mask(0), 0x0B);
}

TEST(Dnnk, BufferWithTwoTensorsOfOneLayerIsRejected) {
  // Coloring never puts two tensors of one layer in a buffer, and the DP's
  // masks read only earlier buffers; a hand-built buffer that breaks this
  // is a typed error, not a silently wrong value.
  graph::ComputationGraph g = fat_chain(2);
  hw::PerfModel model(g, small_design());
  LatencyTables tables(model);
  std::vector<TensorEntity> entities;
  entities.push_back(stream_entity(0, TensorSource::kInput, 8192));
  entities.push_back(stream_entity(1, TensorSource::kInput, 8192));
  entities.push_back(stream_entity(1, TensorSource::kOutput, 4096));
  const InterferenceGraph ig(std::move(entities));
  const std::vector<VirtualBuffer> buffers{{0, 8192, {0}}, {1, 8192, {1, 2}}};
  AllocatorOptions fine;
  fine.granularity_bytes = 4096;
  for (std::int64_t capacity : {std::int64_t{0}, std::int64_t{3} * 4096}) {
    try {
      dnnk_allocate(ig, buffers, tables, capacity, fine);
      ADD_FAILURE() << "capacity " << capacity << ": expected an OptionError";
    } catch (const resil::OptionError& e) {
      EXPECT_EQ(e.code(), resil::Code::kBadArgument);
      EXPECT_EQ(e.pass(), "pass.dnnk");
    }
  }
}

class ColoredBuffers : public ::testing::TestWithParam<std::string> {};

TEST_P(ColoredBuffers, HoldAtMostOneTensorOfEachLayer) {
  // Every tensor of layer L is live at step L, so coloring never merges two
  // of them: the guarantee dnnk_allocate rests on.
  const graph::ComputationGraph graph = models::build_by_name(GetParam());
  int shared = 0;
  for (hw::Precision p :
       {hw::Precision::kInt8, hw::Precision::kInt16, hw::Precision::kFp32}) {
    for (const hw::FpgaDevice& device :
         {hw::FpgaDevice::vu9p(), hw::FpgaDevice::zu9eg(), hw::FpgaDevice::u250()}) {
      const Instance inst = colored_instance(graph, device, p);
      for (const VirtualBuffer& b : inst.buffers) {
        shared += b.members.size() > 1 ? 1 : 0;
        std::vector<graph::LayerId> layers;
        for (std::size_t e : b.members) layers.push_back(inst.ig.entities()[e].key.layer);
        std::sort(layers.begin(), layers.end());
        EXPECT_EQ(std::adjacent_find(layers.begin(), layers.end()), layers.end())
            << GetParam() << " " << hw::to_string(p) << " " << device.name
            << " vbuf#" << b.id;
      }
    }
  }
  EXPECT_GT(shared, 0) << "no multi-member buffer exercised";
}

INSTANTIATE_TEST_SUITE_P(Zoo, ColoredBuffers,
                         ::testing::ValuesIn(models::model_names()));

/// dnnk.gain_runs of one dnnk_allocate call.
std::int64_t gain_runs_of(const InterferenceGraph& ig,
                          const std::vector<VirtualBuffer>& buffers,
                          const LatencyTables& tables, std::int64_t capacity,
                          const AllocatorOptions& options = {}) {
  obs::StatsSession session;
  dnnk_allocate(ig, buffers, tables, capacity, options);
  return session.stats().counter("dnnk.gain_runs");
}

TEST(Dnnk, RowWithoutOwnersIsOneRun) {
  // Every buffer holds the input of its own layer and nothing else, so no
  // row reads pbuf_table: each row that fits the capacity is a single run.
  auto inst = singleton_instance(6);
  const AllocatorOptions opt;
  const std::int64_t total = total_buffer_bytes(inst.buffers);
  for (std::int64_t cap = 0; cap <= total; cap += total / 12) {
    expect_matches_per_cell_reference(inst.ig, inst.buffers, inst.tables, cap,
                                      "capacity " + std::to_string(cap), opt);
    const auto fitting = std::count_if(
        inst.buffers.begin(), inst.buffers.end(), [&](const VirtualBuffer& b) {
          return quantized_units(b.bytes, opt) <= cap / opt.granularity_bytes;
        });
    EXPECT_EQ(gain_runs_of(inst.ig, inst.buffers, inst.tables, cap, opt), fitting)
        << "capacity " << cap;
  }
}

TEST(Dnnk, OwnerBitsFlippingAtAdjacentColumnsGiveRunsOfOne) {
  // m two-unit buffers X, each worth more than the one-unit buffer O after
  // them, leave O's pbuf_table row alternating: at an odd column O fits
  // beside the same X picks as one column lower, at an even column it
  // would displace an X. O holds the input of layer 0, a 1x1 conv from 64
  // to 56 channels whose input stream, output stream and compute time fall
  // in that order; buffer D holds its output, which gains only when the
  // input is on chip. So D's masks read O's bit and its row splits into
  // runs of one column at every column up to 2m + 1. Each X holds the input
  // of its own layer, so no X row has owners.
  constexpr int kM = 6;
  graph::ComputationGraph g("flip_fixture");
  auto x = g.add_input("in", {64, 14, 14});
  x = g.add_conv("shrink", x, {56, 1, 1, 1, 0, 0});
  for (int l = 0; l <= kM; ++l) {
    x = g.add_conv("c" + std::to_string(l), x, {256, 1, 1, 1, 0, 0});
  }
  g.validate();
  hw::AcceleratorDesign design = small_design();
  design.array = {64, 16, 32};
  const hw::PerfModel model(g, design);
  const LatencyTables tables(model);
  ASSERT_EQ(tables.marginal_gain(0, TensorSource::kOutput, 0), 0.0);
  ASSERT_GT(tables.marginal_gain(0, TensorSource::kOutput, bit(TensorSource::kInput)),
            0.0)
      << "D's value must depend on O's bit";

  constexpr std::int64_t kUnit = 4096;
  std::vector<TensorEntity> entities;
  std::vector<VirtualBuffer> buffers;
  const auto add_buffer = [&](std::int64_t bytes, graph::LayerId layer,
                              TensorSource source) {
    entities.push_back(stream_entity(layer, source, bytes));
    buffers.push_back({static_cast<int>(buffers.size()), bytes, {entities.size() - 1}});
  };
  const double o_gain = tables.marginal_gain(0, TensorSource::kInput, 0);
  for (graph::LayerId layer = 2; layer <= kM + 1; ++layer) {
    ASSERT_GT(tables.marginal_gain(layer, TensorSource::kInput, 0), o_gain)
        << "layer " << layer;
    add_buffer(2 * kUnit, layer, TensorSource::kInput);
  }
  add_buffer(kUnit, 0, TensorSource::kInput);
  add_buffer(kUnit, 0, TensorSource::kOutput);
  const InterferenceGraph ig(std::move(entities));
  AllocatorOptions fine;
  fine.granularity_bytes = kUnit;
  const std::int64_t total = total_buffer_bytes(buffers);
  for (std::int64_t capacity = 0; capacity <= total; capacity += kUnit) {
    expect_matches_per_cell_reference(ig, buffers, tables, capacity,
                                      "capacity " + std::to_string(capacity), fine);
  }
  // At 2m + 2 units every buffer fits and the DP does not run. At 2m + 1
  // units: one run per X row and for O, and 2m + 1 runs over D's 2m + 1
  // columns 1..2m + 1, where O's bit alternates at every column.
  EXPECT_EQ(total_units(buffers, fine), 2 * kM + 2);
  EXPECT_EQ(gain_runs_of(ig, buffers, tables, (2 * kM + 1) * kUnit, fine),
            kM + 1 + (2 * kM + 1));
}

TEST(Exact, RejectsOversizedInstances) {
  auto inst = singleton_instance(3);
  std::vector<VirtualBuffer> many;
  for (int i = 0; i < 30; ++i) {
    VirtualBuffer b = inst.buffers[0];
    b.id = i;
    many.push_back(b);
  }
  EXPECT_THROW(exact_allocate(inst.ig, many, inst.tables, 1 << 20),
               std::invalid_argument);
  EXPECT_THROW(
      exact_allocate(inst.ig, inst.buffers, inst.tables, 1 << 20, {}, 30),
      std::invalid_argument);
}

TEST(EvaluateSelection, SelectionSizeMismatchThrows) {
  auto inst = singleton_instance(2);
  EXPECT_THROW(evaluate_selection(inst.ig, inst.buffers, inst.tables,
                                  {true}, AllocatorOptions{}),
               std::invalid_argument);
}

TEST(Greedy, RespectsCapacity) {
  auto inst = singleton_instance(6);
  const AllocatorOptions opt;
  const std::int64_t cap = std::int64_t{1} << 20;
  const auto r = greedy_allocate(inst.ig, inst.buffers, inst.tables, cap, opt);
  EXPECT_LE(r.bytes_used, cap);
  EXPECT_GE(r.gain_s, 0.0);
}

TEST(LatencyTablesApi, MarginalGainNonNegativeAndConsistent) {
  auto g = lcmm::testing::residual_block();
  hw::PerfModel model(g, small_design());
  LatencyTables tables(model);
  for (const auto& layer : g.layers()) {
    for (int s = 0; s < kNumSources; ++s) {
      for (std::uint8_t mask = 0; mask < 16; ++mask) {
        const double gain =
            tables.marginal_gain(layer.id, static_cast<TensorSource>(s), mask);
        EXPECT_GE(gain, 0.0);
      }
    }
    // Fully on-chip latency equals the compute floor.
    EXPECT_NEAR(tables.node_latency(layer.id, 0x0F),
                model.timing(layer.id).compute_s, 1e-15);
    EXPECT_DOUBLE_EQ(tables.node_latency(layer.id, 0),
                     model.timing(layer.id).umm_latency());
  }
}

TEST(LatencyTablesApi, BadLayerThrows) {
  auto g = fat_chain(2);
  hw::PerfModel model(g, small_design());
  LatencyTables tables(model);
  EXPECT_THROW((void)tables.node_latency(2, 0), std::out_of_range);
  EXPECT_THROW((void)tables.node_latency(-1, 0), std::out_of_range);
  EXPECT_THROW((void)tables.marginal_gain(2, TensorSource::kInput, 0),
               std::out_of_range);
  EXPECT_THROW((void)tables.standalone_reduction(-1, TensorSource::kWeight),
               std::out_of_range);
}

class LatencyTablesZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(LatencyTablesZoo, EveryEntryIsEq1BitForBit) {
  const graph::ComputationGraph graph = models::build_by_name(GetParam());
  for (hw::Precision p :
       {hw::Precision::kInt8, hw::Precision::kInt16, hw::Precision::kFp32}) {
    for (const hw::FpgaDevice& device :
         {hw::FpgaDevice::vu9p(), hw::FpgaDevice::zu9eg(), hw::FpgaDevice::u250()}) {
      hw::AcceleratorDesign design = small_design(p);
      design.device = device;
      const hw::PerfModel model(graph, design);
      const LatencyTables tables(model);
      for (const graph::Layer& layer : graph.layers()) {
        const hw::LayerTiming& t = model.timing(layer.id);
        for (std::uint8_t mask = 0; mask < 16; ++mask) {
          const double eq1 =
              hw::eq1_latency(t.compute_s, t.if_s, t.res_s, t.wt_s, t.of_s, mask);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(tables.node_latency(layer.id, mask)),
                    std::bit_cast<std::uint64_t>(eq1))
              << GetParam() << " " << hw::to_string(p) << " " << device.name
              << " layer " << layer.id << " mask " << int{mask};
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, LatencyTablesZoo,
                         ::testing::ValuesIn(models::model_names()));

}  // namespace
}  // namespace lcmm::core
