#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hw/device.hpp"
#include "hw/dse.hpp"
#include "hw/systolic.hpp"
#include "hw/tiling.hpp"
#include "oracle/dse.hpp"
#include "test_graphs.hpp"

namespace lcmm::hw {
namespace {

TEST(Precision, BytesPerElem) {
  EXPECT_EQ(bytes_per_elem(Precision::kInt8), 1);
  EXPECT_EQ(bytes_per_elem(Precision::kInt16), 2);
  EXPECT_EQ(bytes_per_elem(Precision::kFp32), 4);
}

TEST(Precision, DspCostMatchesPaper) {
  // §4.1: fixed-point MAC = 1 DSP, fp32 MAC = 5 DSPs.
  EXPECT_EQ(dsps_per_mac(Precision::kInt8), 1);
  EXPECT_EQ(dsps_per_mac(Precision::kInt16), 1);
  EXPECT_EQ(dsps_per_mac(Precision::kFp32), 5);
}

TEST(Device, Vu9pResources) {
  const FpgaDevice d = FpgaDevice::vu9p();
  EXPECT_EQ(d.dsp_total, 6840);
  EXPECT_EQ(d.uram_total, 960);
  EXPECT_EQ(d.bram36_total, 2160);
  // ~44 MB of SRAM total — the "around the device limit (40 MB)" of
  // Fig. 2(b).
  EXPECT_NEAR(d.sram_bytes_total() / (1024.0 * 1024.0), 43.3, 1.5);
  // 4 banks x 19.2 GB/s.
  EXPECT_DOUBLE_EQ(d.ddr_peak_gbps_total(), 76.8);
}

TEST(Device, ClockModel) {
  const FpgaDevice d = FpgaDevice::vu9p();
  EXPECT_GT(d.clock_mhz(Precision::kInt8, false),
            d.clock_mhz(Precision::kInt8, true));
  EXPECT_GT(d.clock_mhz(Precision::kInt16, false),
            d.clock_mhz(Precision::kFp32, false));
}

TEST(Systolic, MacsAndDspCost) {
  const SystolicArrayConfig a{32, 11, 16};
  EXPECT_EQ(a.macs_per_cycle(), 5632);
  EXPECT_EQ(a.dsp_cost(Precision::kInt8), 5632);
  EXPECT_EQ(a.dsp_cost(Precision::kFp32), 28160);
  EXPECT_DOUBLE_EQ(a.peak_ops_per_sec(200.0), 2.0 * 5632 * 200e6);
  EXPECT_EQ(a.to_string(), "32x11x16");
}

TEST(Tiling, GeometryCountsTiles) {
  auto g = lcmm::testing::chain3();  // 28x28 maps
  const SystolicArrayConfig array{16, 8, 8};
  const TileConfig tile{16, 14, 14};
  // Layer B: 64 -> 64 channels, 28x28.
  const LayerTileGeometry geom = layer_tile_geometry(g, 1, array, tile);
  EXPECT_EQ(geom.n_m, 4);   // 64 / 16 rows
  EXPECT_EQ(geom.n_c, 4);   // 64 / 16 tc
  EXPECT_EQ(geom.n_h, 2);
  EXPECT_EQ(geom.n_w, 2);
  EXPECT_EQ(geom.total_tiles(), 4 * 4 * 4);
}

TEST(Tiling, HaloCountsOverlapClipped) {
  auto g = lcmm::testing::chain3();
  const SystolicArrayConfig array{16, 8, 8};
  const TileConfig tile{16, 14, 14};
  // 3x3 stride-1 pad-1 conv on 28 rows: tile 0 reads input rows 0..14
  // (row -1 is padding, generated on chip), tile 1 reads rows 13..27 —
  // 15 rows each, i.e. one halo row is re-fetched at the seam.
  const LayerTileGeometry geom = layer_tile_geometry(g, 1, array, tile);
  EXPECT_EQ(geom.fetched_rows, 15 + 15);
  EXPECT_EQ(geom.fetched_cols, 15 + 15);
}

TEST(Tiling, SingleTileHasNoHalo) {
  auto g = lcmm::testing::chain3();
  const SystolicArrayConfig array{16, 8, 8};
  const TileConfig tile{64, 28, 28};
  const LayerTileGeometry geom = layer_tile_geometry(g, 1, array, tile);
  EXPECT_EQ(geom.n_h * geom.n_w, 1);
  EXPECT_EQ(geom.fetched_rows, 28);
  EXPECT_EQ(geom.fetched_cols, 28);
}

TEST(Tiling, TileBufferBytesDoubleBuffered) {
  auto g = lcmm::testing::chain3();
  const SystolicArrayConfig array{16, 8, 8};
  const TileConfig tile{32, 14, 14};
  const TileBufferBytes bytes = tile_buffer_bytes(g, array, tile, Precision::kInt8);
  // Input tile: 32ch x 16x16 halo extents x 2 (double buffer).
  EXPECT_EQ(bytes.input, 2 * 32 * 16 * 16);
  // Weight tile: rows x tc x 3x3 kernel x 2.
  EXPECT_EQ(bytes.weight, 2 * 16 * 32 * 9);
  // Output tile: rows x th x tw x 4B accumulators x 2.
  EXPECT_EQ(bytes.output, 2 * 16 * 14 * 14 * 4);
  EXPECT_EQ(bytes.total(), bytes.input + bytes.weight + bytes.output);
}

TEST(Tiling, InvalidConfigThrows) {
  auto g = lcmm::testing::chain3();
  EXPECT_THROW(layer_tile_geometry(g, 0, {0, 0, 0}, {16, 14, 14}),
               std::invalid_argument);
  EXPECT_THROW(layer_tile_geometry(g, 0, {16, 8, 8}, {0, 14, 14}),
               std::invalid_argument);
}

TEST(Dse, CandidatesRespectDspBudget) {
  const Dse dse(FpgaDevice::vu9p(), Precision::kInt8, {});
  const auto arrays = dse.array_candidates();
  ASSERT_FALSE(arrays.empty());
  for (const auto& a : arrays) {
    EXPECT_LE(a.dsp_cost(Precision::kInt8), dse.dsp_budget());
  }
}

TEST(Dse, Fp32ArraysAreSmaller) {
  const Dse dse8(FpgaDevice::vu9p(), Precision::kInt8, {});
  const Dse dse32(FpgaDevice::vu9p(), Precision::kFp32, {});
  std::int64_t best8 = 0, best32 = 0;
  for (const auto& a : dse8.array_candidates()) {
    best8 = std::max(best8, a.macs_per_cycle());
  }
  for (const auto& a : dse32.array_candidates()) {
    best32 = std::max(best32, a.macs_per_cycle());
  }
  EXPECT_GT(best8, 3 * best32);  // fp32 pays ~5x DSPs per MAC
}

TEST(Dse, TileCandidatesFitBramBudget) {
  const FpgaDevice dev = FpgaDevice::vu9p();
  const Dse dse(dev, Precision::kInt8, {});
  auto g = lcmm::testing::chain3();
  const std::vector<DseCandidate> menu = dse.space(g).menu();
  ASSERT_FALSE(menu.empty());
  for (const DseCandidate& c : menu) {
    EXPECT_LE(tile_buffer_bytes(g, c.array, c.tile, Precision::kInt8).total(),
              static_cast<std::int64_t>(0.15 * dev.bram_bytes_total()));
    EXPECT_GE(c.tile.tc, c.array.simd);
  }
}

TEST(Dse, ExploreFindsFeasibleDesign) {
  const Dse dse(FpgaDevice::vu9p(), Precision::kInt8, {});
  auto g = lcmm::testing::chain3();
  const DseResult r = dse.explore(g);
  EXPECT_TRUE(r.design.array.valid());
  EXPECT_TRUE(r.design.tile.valid());
  EXPECT_GT(r.objective_latency_s, 0.0);
  EXPECT_GT(r.design.freq_mhz, 0.0);
}

TEST(Dse, ObjectiveOverridesDefault) {
  auto g = lcmm::testing::chain3();
  // A constant objective makes every candidate equal; the exhaustive
  // reference must still return a valid design.
  const DseResult r =
      oracle::explore(g, FpgaDevice::vu9p(), Precision::kInt8, false,
                      [](const AcceleratorDesign&) { return 1.0; });
  EXPECT_TRUE(r.design.array.valid());
  EXPECT_DOUBLE_EQ(r.objective_latency_s, 1.0);
}

TEST(Dse, FallbackMenuAcceptsEveryArrayThatFits) {
  // When the DSP budget dwarfs every config (> 2x the largest cost), the
  // dominance prune empties the primary menu and the DSE falls back to
  // "accept anything that fits": every (rows, cols, simd) of the menu
  // axes, rows outer, in the primary menu's order.
  FpgaDevice huge = FpgaDevice::vu9p();
  huge.dsp_total = 100000;  // budget 83000 > 2 * 32768 (the costliest config)
  const Dse dse(huge, Precision::kInt8);
  const std::vector<SystolicArrayConfig> arrays = dse.array_candidates();
  std::vector<SystolicArrayConfig> want;
  for (int r : {8, 16, 32}) {
    for (int c : {8, 11, 14, 16, 22, 32}) {
      for (int s : {4, 8, 16, 32}) want.push_back({r, c, s});
    }
  }
  EXPECT_EQ(arrays, want);
  // Every config fits below half budget, so this menu is the fallback one.
  for (const auto& a : arrays) {
    EXPECT_LE(2 * a.dsp_cost(Precision::kInt8), dse.dsp_budget());
  }
  // The fallback menu reaches the argmin like the primary one.
  const DseResult r = dse.explore(lcmm::testing::chain3());
  EXPECT_NE(std::find(arrays.begin(), arrays.end(), r.design.array),
            arrays.end());
}

TEST(Dse, LatencyTiesBreakOnDspCostNotMenuOrder) {
  // Regression: a constant objective makes every candidate tie; the winner
  // must be the cheapest array (then the lowest menu index).
  auto g = lcmm::testing::chain3();
  const Dse dse(FpgaDevice::vu9p(), Precision::kInt8, {});
  int expected_min_cost = 0;
  bool first = true;
  for (const auto& a : dse.array_candidates()) {
    if (oracle::tile_candidates(g, FpgaDevice::vu9p(), Precision::kInt8, a)
            .empty()) {
      continue;
    }
    const int cost = a.dsp_cost(Precision::kInt8);
    if (first || cost < expected_min_cost) expected_min_cost = cost;
    first = false;
  }
  ASSERT_FALSE(first) << "no feasible candidate";
  const DseResult r =
      oracle::explore(g, FpgaDevice::vu9p(), Precision::kInt8, false,
                      [](const AcceleratorDesign&) { return 1.0; });
  EXPECT_EQ(r.design.array.dsp_cost(Precision::kInt8), expected_min_cost);
}

}  // namespace
}  // namespace lcmm::hw
