// The per-request design-space table must reproduce, bit for bit, the
// DSE it replaces: a PerfModel built per candidate for the UMM objective,
// and LatencyTables over it for the allocation-aware refine objective.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <tuple>

#include "core/latency_tables.hpp"
#include "core/lcmm.hpp"
#include "hw/dse.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "oracle/dse.hpp"
#include "resil/error.hpp"
#include "test_graphs.hpp"

namespace lcmm::hw {
namespace {

const FpgaDevice kDevices[] = {FpgaDevice::vu9p(), FpgaDevice::zu9eg(),
                               FpgaDevice::u250()};

void expect_same(const DseResult& table, const DseResult& reference,
                 const std::string& what) {
  EXPECT_EQ(table.design.array, reference.design.array) << what;
  EXPECT_EQ(table.design.tile, reference.design.tile) << what;
  EXPECT_EQ(table.design.freq_mhz, reference.design.freq_mhz) << what;
  // Bit-identical, not merely close: the table sums the same terms in the
  // same order.
  EXPECT_EQ(table.objective_latency_s, reference.objective_latency_s) << what;
}

/// explore(g) against the per-candidate PerfModel objective, at both clocks.
void expect_umm_equivalence(const graph::ComputationGraph& g,
                            const FpgaDevice& device, Precision p) {
  for (bool heavy : {false, true}) {
    const Dse dse(device, p, {.heavy_uram_use = heavy});
    const std::string what = g.name() + " " + device.name + " " + to_string(p) +
                             (heavy ? " heavy-uram" : " uniform");
    expect_same(dse.explore(g),
                oracle::explore(g, device, p, heavy,
                                [&](const AcceleratorDesign& d) {
                                  return PerfModel(g, d).umm_total_latency();
                                }),
                what);
  }
}

/// The refine argmin against the LatencyTables objective on the on-chip
/// state of the plan the compiler ships.
void expect_refine_equivalence(const graph::ComputationGraph& g,
                               const FpgaDevice& device, Precision p) {
  const core::AllocationPlan plan = core::LcmmCompiler(device, p).compile(g);
  const DesignSpace space = Dse(device, p).space(g);
  expect_same(space.argmin(/*heavy_uram_use=*/true, plan.state.masks()),
              oracle::explore(g, device, p, /*heavy_uram_use=*/true,
                              [&](const AcceleratorDesign& d) {
                                const PerfModel model(g, d);
                                return core::LatencyTables(model).total_latency(
                                    plan.state);
                              }),
              g.name() + " " + device.name + " " + to_string(p) + " refine");
}

/// Every zoo net, then random_graph seeds 1-20.
std::vector<graph::ComputationGraph> zoo_and_random_graphs() {
  std::vector<graph::ComputationGraph> graphs;
  for (const std::string& name : models::model_names()) {
    graphs.push_back(models::build_by_name(name));
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    graphs.push_back(models::random_graph(seed));
  }
  return graphs;
}

class DseTableModels : public ::testing::TestWithParam<std::string> {};

TEST_P(DseTableModels, ArgminsMatchThePerCandidateModel) {
  const graph::ComputationGraph g = models::build_by_name(GetParam());
  for (const FpgaDevice& device : kDevices) {
    for (Precision p : kAllPrecisions) {
      expect_umm_equivalence(g, device, p);
      expect_refine_equivalence(g, device, p);
    }
  }
}

/// Every cell of `g`'s space against the per-candidate layer_cost of the
/// class representative, on every device and precision; and each
/// candidate's compute bound against its exact layer-order cycle sum.
void expect_cells_match_layer_cost(const graph::ComputationGraph& g) {
  for (const FpgaDevice& device : kDevices) {
    const mem::DdrModel ddr(device);
    for (Precision p : kAllPrecisions) {
      const DesignSpace space = Dse(device, p).space(g);
      const ShapeClasses& classes = space.classes();
      const double cycle_s = cycle_seconds(device.clock_mhz(p, false));
      const double shrink =
          1.0 - static_cast<double>(g.num_layers() + 4) * 0x1p-52;
      for (std::size_t i = 0; i < space.menu().size(); ++i) {
        AcceleratorDesign design;
        design.device = device;
        design.precision = p;
        design.array = space.menu()[i].array;
        design.tile = space.menu()[i].tile;
        const auto where = [&](std::size_t k) {
          return g.name() + " " + device.name + " " + to_string(p) +
                 " candidate " + std::to_string(i) + " class " +
                 std::to_string(k);
        };
        for (std::size_t k = 0; k < classes.size(); ++k) {
          const LayerCost ref =
              layer_cost(g, classes.representative[k], design, ddr);
          const DesignSpace::Cost cell = space.cell(i, k);
          ASSERT_EQ(cell.cycles, ref.cycles) << where(k);
          ASSERT_EQ(cell.if_s, ref.if_s) << where(k);
          ASSERT_EQ(cell.res_s, ref.res_s) << where(k);
          ASSERT_EQ(cell.wt_s, ref.wt_s) << where(k);
          ASSERT_EQ(cell.of_s, ref.of_s) << where(k);
        }
        // The space sums its compute cycles per axis value rather than per
        // layer; the bound must still read the exact per-layer sum.
        std::int64_t cycles = 0;
        for (const int k : classes.layer_class) {
          cycles += space.cell(i, static_cast<std::size_t>(k)).cycles;
        }
        ASSERT_EQ(space.latency_bound(i, false),
                  static_cast<double>(cycles) * cycle_s * shrink)
            << where(0);
      }
    }
  }
}

TEST_P(DseTableModels, CellsMatchLayerCostBitForBit) {
  // The factored table assembles each cell from shared terms; every cell
  // must equal the per-candidate layer_cost of the class representative.
  expect_cells_match_layer_cost(models::build_by_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Zoo, DseTableModels,
                         ::testing::ValuesIn(models::model_names()),
                         [](const auto& info) { return info.param; });

TEST(DseTable, RandomGraphArgminsMatchThePerCandidateModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const graph::ComputationGraph g = models::random_graph(seed);
    const FpgaDevice& device = kDevices[seed % std::size(kDevices)];
    for (Precision p : kAllPrecisions) {
      expect_umm_equivalence(g, device, p);
      expect_refine_equivalence(g, device, p);
    }
  }
}

TEST(DseTable, RandomGraphCellsMatchLayerCostBitForBit) {
  // Odd strides, pads and groups reach the edge tiles of the fetched
  // extents that the zoo's shapes leave out.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_cells_match_layer_cost(models::random_graph(seed));
  }
}

TEST(DseTable, GroupedConvCellsMatchLayerCostAtEveryRowCount) {
  // Grouped, non-depthwise convs whose output channels are not a multiple
  // of every menu row count: an m-tile of 8, 16 or 32 PE rows covers one,
  // two or four of conv1's groups (10 output channels each), so the input
  // channels each m-tile fetches (channels_per_mtile), and with them if_s,
  // depend on the row count and not only on n_m.
  graph::ComputationGraph g("grouped");
  auto x = g.add_input("in", {48, 28, 28});
  x = g.add_conv("conv1", x, {40, 3, 3, 1, 1, 1, 4});
  g.add_conv("conv2", x, {60, 1, 1, 1, 0, 0, 5});
  g.validate();
  expect_cells_match_layer_cost(g);
  for (const FpgaDevice& device : kDevices) {
    for (Precision p : kAllPrecisions) expect_umm_equivalence(g, device, p);
  }
}

TEST(DseTable, MenuMatchesTileBufferBytes) {
  // The menu filter reads each tile_buffer_bytes term per axis value; it
  // must keep exactly the (array, tile) pairs whose whole-graph buffers fit
  // the BRAM budget and whose tile feeds the SIMD lanes, in menu order
  // (arrays outer, tc, then spatial). The axes restate the DSE's menu.
  constexpr int kTc[] = {16, 32, 64, 128};
  constexpr int kSpatial[] = {4, 7, 8, 14, 16, 17, 28};
  for (const graph::ComputationGraph& g : zoo_and_random_graphs()) {
    for (const FpgaDevice& device : kDevices) {
      for (Precision p : kAllPrecisions) {
        const Dse dse(device, p);
        const std::string what =
            g.name() + " " + device.name + " " + to_string(p);
        // tile_buffer_bytes reads the array only through its row count.
        std::map<int, std::vector<TileConfig>> fitting;
        std::vector<DseCandidate> want;
        for (const SystolicArrayConfig& array : dse.array_candidates()) {
          auto [it, added] = fitting.try_emplace(array.rows);
          for (int tc : kTc) {
            for (int s : kSpatial) {
              const TileConfig tile{tc, s, s};
              if (added && tile_buffer_bytes(g, array, tile, p).total() <=
                               dse.tile_bram_budget()) {
                it->second.push_back(tile);
              }
            }
          }
          std::vector<TileConfig> tiles;
          for (const TileConfig& tile : it->second) {
            if (tile.tc >= array.simd) tiles.push_back(tile);
          }
          ASSERT_EQ(oracle::tile_candidates(g, device, p, array), tiles)
              << what << " array " << array.to_string();
          for (const TileConfig& tile : tiles) want.push_back({array, tile});
        }
        if (want.empty()) {
          EXPECT_THROW(dse.space(g), resil::CompileError) << what;
          continue;
        }
        const std::vector<DseCandidate> menu = dse.space(g).menu();
        ASSERT_EQ(menu.size(), want.size()) << what;
        for (std::size_t i = 0; i < menu.size(); ++i) {
          ASSERT_EQ(menu[i].array, want[i].array) << what << " #" << i;
          ASSERT_EQ(menu[i].tile, want[i].tile) << what << " #" << i;
        }
      }
    }
  }
}

TEST(DseTable, ClassesCoverEveryLayer) {
  const graph::ComputationGraph g = models::build_by_name("resnet152");
  const DesignSpace space = Dse(FpgaDevice::vu9p(), Precision::kInt16).space(g);
  EXPECT_EQ(space.classes().layer_class.size(), g.num_layers());
  // ResNet repeats its bottleneck blocks: far fewer shapes than layers.
  EXPECT_LT(2 * space.classes().size(), g.num_layers());
}

TEST(DseTable, TransferBoundTiesBreakOnDspCostThenMenuIndex) {
  // VGG's pool5 and fc6 (as a 7x7 conv): every candidate is bound by a
  // stream that reads the array only through its row count, so candidates
  // that differ only in cols or simd tie exactly. The argmin must pick the
  // cheapest array among the tied, then the lowest menu index. At fp32
  // the menu lists 8x8x16 (5120 DSPs) before 8x11x8 (3520 DSPs), so the
  // first tied candidate is not the cheapest.
  graph::ComputationGraph g("transfer_bound");
  auto x = g.add_input("in", {512, 14, 14});
  x = g.add_pool("pool5", x, {graph::PoolType::kMax, 2, 2, 0});
  g.add_conv("fc6", x, {1024, 7, 7, 1, 0, 0});
  g.validate();
  const FpgaDevice device = FpgaDevice::vu9p();
  const Precision p = Precision::kFp32;
  obs::StatsSession session;
  const DesignSpace space = Dse(device, p).space(g);
  const double cycle_s = cycle_seconds(device.clock_mhz(p, false));
  const std::vector<DseCandidate>& menu = space.menu();

  std::vector<double> latencies;
  for (std::size_t i = 0; i < menu.size(); ++i) {
    double total = 0.0;
    for (int k : space.classes().layer_class) {
      const DesignSpace::Cost c = space.cell(i, static_cast<std::size_t>(k));
      const double compute_s = static_cast<double>(c.cycles) * cycle_s;
      ASSERT_GT(std::max({c.if_s + c.res_s, c.wt_s, c.of_s}), compute_s)
          << "candidate " << i << " is not transfer-bound";
      total += eq1_latency(compute_s, c.if_s, c.res_s, c.wt_s, c.of_s, 0);
    }
    latencies.push_back(total);
  }
  const double best = *std::min_element(latencies.begin(), latencies.end());
  std::vector<std::size_t> tied;
  for (std::size_t i = 0; i < menu.size(); ++i) {
    if (latencies[i] == best) tied.push_back(i);
  }
  const auto cost = [&](std::size_t i) { return menu[i].array.dsp_cost(p); };
  // The tie set must exercise both rules: a cost difference, and an equal
  // lowest cost that only the menu index separates.
  ASSERT_GT(tied.size(), 2u);
  const std::size_t expected = *std::min_element(
      tied.begin(), tied.end(), [&](std::size_t a, std::size_t b) {
        return std::pair{cost(a), a} < std::pair{cost(b), b};
      });
  EXPECT_NE(expected, tied.front()) << "cost rule not exercised";
  EXPECT_GE(std::count_if(tied.begin(), tied.end(),
                          [&](std::size_t i) {
                            return cost(i) == cost(expected);
                          }),
            2)
      << "menu-index rule not exercised";

  const DseResult r = space.argmin(/*heavy_uram_use=*/false);
  EXPECT_EQ(r.design.array, menu[expected].array);
  EXPECT_EQ(r.design.tile, menu[expected].tile);
  EXPECT_EQ(r.objective_latency_s, best);
  EXPECT_GE(session.stats().counter("dse.ties_broken"),
            static_cast<std::int64_t>(tied.size() - 1));
}

TEST(DseTable, AllNonFiniteObjectivesThrowATypedError) {
  // Regression: with every latency NaN the argmin used to return
  // candidate #0 with a NaN objective. A DDR bandwidth this small makes
  // every stream term, and so every candidate's latency, infinite.
  const auto g = lcmm::testing::chain3();
  FpgaDevice device = FpgaDevice::vu9p();
  device.ddr_peak_gbps_per_bank = std::numeric_limits<double>::denorm_min();
  const DesignSpace space = Dse(device, Precision::kInt8).space(g);
  for (bool heavy : {false, true}) {
    try {
      space.argmin(heavy);
      ADD_FAILURE() << "argmin returned a design with no finite latency";
    } catch (const resil::CompileError& e) {
      EXPECT_EQ(e.code(), resil::Code::kNoFeasibleDesign);
      EXPECT_EQ(e.pass(), "dse.explore");
    }
  }
  // The exhaustive reference rejects NaN and infinite objectives alike.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(oracle::explore(g, FpgaDevice::vu9p(), Precision::kInt8, false,
                                 [bad](const AcceleratorDesign&) { return bad; }),
                 resil::CompileError)
        << bad;
  }
}

TEST(DseTable, MasksMustCoverEveryLayer) {
  const auto g = lcmm::testing::chain3();
  const DesignSpace space = Dse(FpgaDevice::vu9p(), Precision::kInt8).space(g);
  const std::vector<std::uint8_t> short_masks(g.num_layers() - 1, 0);
  EXPECT_THROW(space.argmin(true, short_masks), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The compute bound and the pruned argmin.
// ---------------------------------------------------------------------------

/// One random on-chip mask per layer (any of the four stream bits).
std::vector<std::uint8_t> random_masks(std::size_t layers, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> bits(0, 15);
  std::vector<std::uint8_t> masks(layers);
  for (std::uint8_t& m : masks) m = static_cast<std::uint8_t>(bits(rng));
  return masks;
}

/// Candidate `i`'s objective from the table cells, summed in layer order.
double layer_order_sum(const DesignSpace& space, std::size_t i, double cycle_s,
                       std::span<const std::uint8_t> masks) {
  const std::vector<int>& layer_class = space.classes().layer_class;
  double total = 0.0;
  for (std::size_t l = 0; l < layer_class.size(); ++l) {
    const DesignSpace::Cost c =
        space.cell(i, static_cast<std::size_t>(layer_class[l]));
    total += eq1_latency(static_cast<double>(c.cycles) * cycle_s, c.if_s,
                         c.res_s, c.wt_s, c.of_s, masks.empty() ? 0 : masks[l]);
  }
  return total;
}

TEST(DseTable, ComputeBoundNeverExceedsLatency) {
  std::uint64_t seed = 0;
  for (const graph::ComputationGraph& g : zoo_and_random_graphs()) {
    for (const FpgaDevice& device : kDevices) {
      for (Precision p : kAllPrecisions) {
        const DesignSpace space = Dse(device, p).space(g);
        const std::vector<std::uint8_t> masks =
            random_masks(g.num_layers(), ++seed);
        for (bool heavy : {false, true}) {
          const double cycle_s = cycle_seconds(device.clock_mhz(p, heavy));
          for (std::span<const std::uint8_t> m :
               {std::span<const std::uint8_t>(), std::span(masks)}) {
            for (std::size_t i = 0; i < space.menu().size(); ++i) {
              ASSERT_LE(space.latency_bound(i, heavy),
                        layer_order_sum(space, i, cycle_s, m))
                  << g.name() << " " << device.name << " " << to_string(p)
                  << (heavy ? " heavy-uram" : " uniform")
                  << (m.empty() ? " no masks" : " random masks")
                  << " candidate " << i;
            }
          }
        }
      }
    }
  }
}

TEST(DseTable, ArgminMatchesExhaustiveScanUnderRandomMasks) {
  std::uint64_t seed = 100;
  for (const graph::ComputationGraph& g : zoo_and_random_graphs()) {
    for (const FpgaDevice& device : kDevices) {
      for (Precision p : kAllPrecisions) {
        // The argmins run first, on a fresh space, so each fills only the
        // stream rows its own walk needs; the scan below fills the rest.
        const DesignSpace space = Dse(device, p).space(g);
        struct Query {
          bool heavy;
          std::vector<std::uint8_t> masks;
          DseResult result;
        };
        std::vector<Query> queries = {
            {false, {}, {}},
            {true, {}, {}},
            {true, random_masks(g.num_layers(), ++seed), {}},
            {true, random_masks(g.num_layers(), ++seed), {}},
            {false, random_masks(g.num_layers(), ++seed), {}},
        };
        for (Query& q : queries) q.result = space.argmin(q.heavy, q.masks);

        const std::vector<DseCandidate>& menu = space.menu();
        for (const Query& q : queries) {
          const double cycle_s = cycle_seconds(device.clock_mhz(p, q.heavy));
          std::optional<std::tuple<double, int, std::size_t>> best;
          for (std::size_t i = 0; i < menu.size(); ++i) {
            const double latency = layer_order_sum(space, i, cycle_s, q.masks);
            if (!std::isfinite(latency)) continue;
            const std::tuple key{latency, menu[i].array.dsp_cost(p), i};
            if (!best || key < *best) best = key;
          }
          ASSERT_TRUE(best.has_value());
          const std::size_t want = std::get<2>(*best);
          const std::string what = g.name() + " " + device.name + " " +
                                   to_string(p) +
                                   (q.heavy ? " heavy-uram" : " uniform") +
                                   (q.masks.empty() ? "" : " random masks");
          EXPECT_EQ(q.result.design.array, menu[want].array) << what;
          EXPECT_EQ(q.result.design.tile, menu[want].tile) << what;
          EXPECT_EQ(q.result.objective_latency_s, std::get<0>(*best)) << what;
        }
      }
    }
  }
}

TEST(DseTable, BoundSkipsWork) {
  // A full compile runs three argmins (UMM, LCMM seed, refine) on one
  // space; the bound lets them skip stream rows and candidates.
  const graph::ComputationGraph g = models::build_by_name("resnet152");
  const FpgaDevice device = FpgaDevice::vu9p();
  const Precision p = Precision::kInt16;
  const std::vector<DseCandidate> menu = Dse(device, p).space(g).menu();
  std::set<std::tuple<int, int, int, int>> row_keys;
  for (const DseCandidate& c : menu) {
    row_keys.insert({c.array.rows, c.tile.tc, c.tile.th, c.tile.tw});
  }

  obs::StatsSession session;
  core::LcmmCompiler(device, p).compile(g);
  const obs::CompileStats& stats = session.stats();
  const auto menu_size = static_cast<std::int64_t>(menu.size());
  EXPECT_EQ(stats.counter("dse.menu"), menu_size);
  const std::int64_t rows = stats.counter("dse.stream_rows");
  EXPECT_GT(rows, 0);
  EXPECT_LT(rows, static_cast<std::int64_t>(row_keys.size()));
  const std::int64_t evaluated = stats.counter("dse.candidates_evaluated");
  const std::int64_t argmins = stats.counter("dse.argmins");
  EXPECT_GE(argmins, 3);
  EXPECT_GE(evaluated, argmins);
  EXPECT_LT(evaluated, argmins * menu_size);
}

// ---------------------------------------------------------------------------
// The models and tile buffers of the designs a compile picks, read from
// the space.
// ---------------------------------------------------------------------------

/// Every LayerTiming field of `got` equals `want`'s, on every layer.
void expect_same_timings(const PerfModel& got, const PerfModel& want,
                         const std::string& what) {
  for (const graph::Layer& layer : want.graph().layers()) {
    const LayerTiming& a = got.timing(layer.id);
    const LayerTiming& b = want.timing(layer.id);
    const std::string where = what + " layer " + layer.name;
    ASSERT_EQ(a.cycles, b.cycles) << where;
    ASSERT_EQ(a.nominal_macs, b.nominal_macs) << where;
    ASSERT_EQ(a.if_bytes, b.if_bytes) << where;
    ASSERT_EQ(a.if_s, b.if_s) << where;
    ASSERT_EQ(a.res_bytes, b.res_bytes) << where;
    ASSERT_EQ(a.res_s, b.res_s) << where;
    ASSERT_EQ(a.wt_bytes, b.wt_bytes) << where;
    ASSERT_EQ(a.wt_s, b.wt_s) << where;
    ASSERT_EQ(a.of_bytes, b.of_bytes) << where;
    ASSERT_EQ(a.of_s, b.of_s) << where;
    ASSERT_EQ(a.compute_s, b.compute_s) << where;
  }
}

/// At the designs a compile of `g` picks — the UMM argmin, the LCMM seed
/// argmin, the refine argmin under the shipped plan's on-chip state, and
/// the shipped LCMM and UMM designs — the model built over the space's
/// shape classes equals the per-layer PerfModel field for field, and the
/// tile buffers the argmin and the plans carry equal the whole-graph
/// tile_buffer_bytes. Returns false if `g` has no feasible design here.
bool expect_space_models(const graph::ComputationGraph& g,
                         const FpgaDevice& device, Precision p) {
  const std::string what = g.name() + " " + device.name + " " + to_string(p);
  std::optional<DesignSpace> space;
  try {
    space.emplace(Dse(device, p).space(g));
  } catch (const resil::CompileError& e) {
    EXPECT_EQ(e.code(), resil::Code::kNoFeasibleDesign) << what;
    return false;
  }
  core::AllocationPlan umm;
  const core::AllocationPlan plan =
      core::LcmmCompiler(device, p).compile(g, &umm);
  const DseResult picked[] = {
      space->argmin(/*heavy_uram_use=*/false),
      space->argmin(/*heavy_uram_use=*/true),
      space->argmin(/*heavy_uram_use=*/true, plan.state.masks()),
  };
  for (const DseResult& r : picked) {
    const std::string where = what + " " + r.design.array.to_string() + " " +
                              r.design.tile.to_string();
    expect_same_timings(PerfModel(g, r.design, space->classes()),
                        PerfModel(g, r.design), where);
    EXPECT_EQ(r.tile_buffers,
              tile_buffer_bytes(g, r.design.array, r.design.tile, p))
        << where;
  }
  const core::AllocationPlan* const shipped_plans[] = {&plan, &umm};
  for (const core::AllocationPlan* shipped : shipped_plans) {
    const AcceleratorDesign& d = shipped->design;
    const std::string where = what + " shipped " + d.array.to_string() + " " +
                              d.tile.to_string();
    expect_same_timings(PerfModel(g, d, space->classes()), PerfModel(g, d),
                        where);
    EXPECT_EQ(shipped->tile_buffers,
              tile_buffer_bytes(g, d.array, d.tile, p))
        << where;
  }
  return true;
}

class SpaceModels : public ::testing::TestWithParam<std::string> {};

TEST_P(SpaceModels, PickedDesignsMatchThePerLayerModel) {
  const graph::ComputationGraph g = models::build_by_name(GetParam());
  for (const FpgaDevice& device : kDevices) {
    for (Precision p : kAllPrecisions) {
      EXPECT_TRUE(expect_space_models(g, device, p))
          << device.name << " " << to_string(p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, SpaceModels,
                         ::testing::ValuesIn(models::model_names()),
                         [](const auto& info) { return info.param; });

TEST(SpaceModelsRandom, PickedDesignsMatchThePerLayerModel) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const graph::ComputationGraph g = models::random_graph(seed);
    for (const FpgaDevice& device : kDevices) {
      for (Precision p : kAllPrecisions) {
        checked += expect_space_models(g, device, p);
      }
    }
  }
  // Most configs have a feasible design; the assertions above ran there.
  EXPECT_GT(checked, 20 * 9 / 2);
}

// ---------------------------------------------------------------------------
// Shape classes.
// ---------------------------------------------------------------------------

TEST(ShapeClasses, IdenticallyShapedLayersShareAClass) {
  // A, B and C are the same 3x3 conv at three depths; D differs.
  graph::ComputationGraph g("repeats");
  auto x = g.add_input("in", {64, 28, 28});
  x = g.add_conv("A", x, {64, 3, 3, 1, 1, 1});
  x = g.add_conv("B", x, {64, 3, 3, 1, 1, 1});
  x = g.add_conv("C", x, {64, 3, 3, 1, 1, 1});
  g.add_conv("D", x, {128, 1, 1, 1, 0, 0});
  g.validate();
  const ShapeClasses classes = shape_classes(g);
  EXPECT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes.layer_class, (std::vector<int>{0, 0, 0, 1}));
  EXPECT_EQ(classes.representative, (std::vector<graph::LayerId>{0, 3}));
  EXPECT_EQ(shape_key(g, 0), shape_key(g, 2));
}

TEST(ShapeClasses, AFusedResidualSplitsTheClass) {
  // Same conv shape twice; only the second one carries a shortcut add.
  graph::ComputationGraph g("residual");
  auto in = g.add_input("in", {64, 14, 14});
  auto a = g.add_conv("plain", in, {64, 3, 3, 1, 1, 1});
  g.add_conv("fused", a, {64, 3, 3, 1, 1, 1}, /*residual=*/in);
  g.validate();
  EXPECT_EQ(shape_classes(g).size(), 2u);
}

TEST(ShapeClasses, ChangingAnyKeyFieldSplitsTheClass) {
  const auto g = lcmm::testing::chain3();
  const ShapeKey base = shape_key(g, 1);
  std::vector<ShapeKey> variants;
  const auto vary = [&](auto mutate) {
    ShapeKey k = base;
    mutate(k);
    variants.push_back(k);
  };
  vary([](ShapeKey& k) { k.kind = graph::LayerKind::kPool; });
  vary([](ShapeKey& k) { ++k.conv_kernel_h; });
  vary([](ShapeKey& k) { ++k.conv_kernel_w; });
  vary([](ShapeKey& k) { ++k.conv_stride; });
  vary([](ShapeKey& k) { ++k.conv_pad_h; });
  vary([](ShapeKey& k) { ++k.conv_pad_w; });
  vary([](ShapeKey& k) { ++k.conv_groups; });
  vary([](ShapeKey& k) { ++k.pool_kernel; });
  vary([](ShapeKey& k) { ++k.pool_stride; });
  vary([](ShapeKey& k) { ++k.pool_pad; });
  vary([](ShapeKey& k) { k.pool_global = true; });
  vary([](ShapeKey& k) { ++k.in_channels; });
  vary([](ShapeKey& k) { ++k.in_height; });
  vary([](ShapeKey& k) { ++k.in_width; });
  vary([](ShapeKey& k) { ++k.out_channels; });
  vary([](ShapeKey& k) { ++k.out_height; });
  vary([](ShapeKey& k) { ++k.out_width; });
  vary([](ShapeKey& k) { k.residual = true; });
  vary([](ShapeKey& k) { ++k.weight_elems; });
  vary([](ShapeKey& k) { ++k.macs; });
  // Every variant differs from the base and from every other variant, so
  // grouping by key puts each in a class of its own.
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i], base) << "field #" << i;
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(variants[i], variants[j]) << i << " vs " << j;
    }
  }
}

}  // namespace
}  // namespace lcmm::hw
