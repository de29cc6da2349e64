// The cost-term helpers replace per-tile sums with exact closed forms. The
// per-tile loops they replace stay here as references, and the closed
// forms must match them exactly: exhaustively over a window-geometry grid,
// and on every zoo layer under every tile of the DSE menu. A layer's timing
// is its layer_cost scaled to the clock, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "hw/dse.hpp"
#include "hw/perf_model.hpp"
#include "hw/tiling.hpp"
#include "models/models.hpp"
#include "oracle/dse.hpp"

namespace lcmm::hw {
namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Reference: every tile's fetched input extent, clipped to [0, in_extent).
std::int64_t fetched_extent_loop(int out_extent, int tile, int kernel,
                                 int stride, int in_extent, int pad) {
  std::int64_t total = 0;
  for (int o = 0; o < out_extent; o += tile) {
    const int span = std::min(tile, out_extent - o);
    const int in_first = std::max(0, o * stride - pad);
    const int in_last =
        std::min(in_extent - 1, (o + span - 1) * stride - pad + kernel - 1);
    total += std::max(0, in_last - in_first + 1);
  }
  return total;
}

/// Reference: pixel steps summed over every th x tw output tile.
std::int64_t px_steps_loop(const graph::FeatureShape& out, int th, int tw,
                           int cols) {
  std::int64_t total = 0;
  for (int h0 = 0; h0 < out.height; h0 += th) {
    const std::int64_t th_t = std::min(th, out.height - h0);
    for (int w0 = 0; w0 < out.width; w0 += tw) {
      const std::int64_t tw_t = std::min(tw, out.width - w0);
      total += ceil_div(th_t * tw_t, cols);
    }
  }
  return total;
}

/// Reference: reduction steps summed over every tc-channel tile.
std::int64_t red_steps_loop(int group_channels, std::int64_t kk, int tc,
                            int simd) {
  std::int64_t total = 0;
  for (int c0 = 0; c0 < group_channels; c0 += tc) {
    const std::int64_t c_t = std::min(tc, group_channels - c0);
    total += ceil_div(c_t * kk, simd);
  }
  return total;
}

TEST(CostTerms, FetchedExtentMatchesTheTileLoopExhaustively) {
  std::int64_t cases = 0;
  for (int kernel = 1; kernel <= 11; ++kernel) {
    for (int stride = 1; stride <= 4; ++stride) {
      for (int pad = 0; pad <= kernel; ++pad) {
        for (int in = 1; in <= 80; ++in) {
          if (in + 2 * pad < kernel) continue;
          // Floor-mode output extent, and the one extra output of
          // ceil-mode pooling whose window may start past the input.
          const int floor_out = (in + 2 * pad - kernel) / stride + 1;
          const int ceil_out =
              (in + 2 * pad - kernel + stride - 1) / stride + 1;
          for (int out : {floor_out, ceil_out}) {
            for (int tile = 1; tile <= 30; ++tile) {
              ++cases;
              ASSERT_EQ(fetched_extent(out, tile, kernel, stride, in, pad),
                        fetched_extent_loop(out, tile, kernel, stride, in, pad))
                  << "out " << out << " tile " << tile << " kernel " << kernel
                  << " stride " << stride << " in " << in << " pad " << pad;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 700000);
}

/// Every tile, column count and SIMD width on the DSE menus of every
/// device and precision.
struct MenuDims {
  std::vector<TileConfig> tiles;
  std::set<int> cols;
  std::set<int> simd;
};

MenuDims menu_dims(const graph::ComputationGraph& g) {
  MenuDims dims;
  for (const FpgaDevice& device :
       {FpgaDevice::vu9p(), FpgaDevice::zu9eg(), FpgaDevice::u250()}) {
    for (Precision p : kAllPrecisions) {
      const Dse dse(device, p);
      for (const SystolicArrayConfig& a : dse.array_candidates()) {
        dims.cols.insert(a.cols);
        dims.simd.insert(a.simd);
        for (const TileConfig& t : oracle::tile_candidates(g, device, p, a)) {
          if (std::find(dims.tiles.begin(), dims.tiles.end(), t) ==
              dims.tiles.end()) {
            dims.tiles.push_back(t);
          }
        }
      }
    }
  }
  return dims;
}

class CostTermsZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(CostTermsZoo, ClosedFormsMatchTheTileLoopsOnTheMenu) {
  const graph::ComputationGraph g = models::build_by_name(GetParam());
  const MenuDims dims = menu_dims(g);
  ASSERT_FALSE(dims.tiles.empty());
  for (const graph::Layer& layer : g.layers()) {
    const graph::FeatureShape& in = g.input_shape(layer.id);
    const graph::FeatureShape& out = g.own_output_shape(layer.id);
    const ShapeKey shape = shape_key(g, layer.id);
    for (const TileConfig& t : dims.tiles) {
      const LayerTileGeometry geom =
          layer_tile_geometry(g, layer.id, {8, 8, 4}, t);
      if (layer.is_conv()) {
        const graph::ConvParams& c = layer.conv;
        EXPECT_EQ(geom.fetched_rows,
                  fetched_extent_loop(out.height, t.th, c.kernel_h, c.stride,
                                      in.height, c.pad_h))
            << layer.name << " " << t.to_string();
        EXPECT_EQ(geom.fetched_cols,
                  fetched_extent_loop(out.width, t.tw, c.kernel_w, c.stride,
                                      in.width, c.pad_w))
            << layer.name << " " << t.to_string();
        for (int cols : dims.cols) {
          EXPECT_EQ(px_steps(shape, t.th, t.tw, cols),
                    px_steps_loop(out, t.th, t.tw, cols))
              << layer.name << " " << t.to_string() << " cols " << cols;
        }
        const std::int64_t kk =
            static_cast<std::int64_t>(c.kernel_h) * c.kernel_w;
        for (int simd : dims.simd) {
          EXPECT_EQ(red_steps(shape, t.tc, simd),
                    red_steps_loop(in.channels / c.groups, kk, t.tc, simd))
              << layer.name << " " << t.to_string() << " simd " << simd;
        }
      } else {
        const graph::PoolParams& p = layer.pool;
        const int kernel = p.global ? 1 : p.kernel;
        const int stride = p.global ? 1 : p.stride;
        const int pad = p.global ? 0 : p.pad;
        EXPECT_EQ(geom.fetched_rows, fetched_extent_loop(out.height, t.th,
                                                         kernel, stride,
                                                         in.height, pad))
            << layer.name << " " << t.to_string();
        EXPECT_EQ(geom.fetched_cols, fetched_extent_loop(out.width, t.tw,
                                                         kernel, stride,
                                                         in.width, pad))
            << layer.name << " " << t.to_string();
      }
    }
  }
}

TEST_P(CostTermsZoo, TimingIsLayerCostAtTheClock) {
  // A layer's timing is its clock-free cost, field for field, plus the
  // compute time of its cycles at the design's clock.
  const graph::ComputationGraph g = models::build_by_name(GetParam());
  for (Precision p : kAllPrecisions) {
    const AcceleratorDesign design =
        Dse(FpgaDevice::vu9p(), p).explore(g).design;
    const PerfModel model(g, design);
    for (const graph::Layer& layer : g.layers()) {
      const LayerTiming& t = model.timing(layer.id);
      const LayerCost c = layer_cost(g, layer.id, design, model.ddr());
      const std::string where = layer.name + " " + to_string(p);
      EXPECT_EQ(t.cycles, c.cycles) << where;
      EXPECT_EQ(t.nominal_macs, c.nominal_macs) << where;
      EXPECT_EQ(t.if_bytes, c.if_bytes) << where;
      EXPECT_EQ(t.if_s, c.if_s) << where;
      EXPECT_EQ(t.res_bytes, c.res_bytes) << where;
      EXPECT_EQ(t.res_s, c.res_s) << where;
      EXPECT_EQ(t.wt_bytes, c.wt_bytes) << where;
      EXPECT_EQ(t.wt_s, c.wt_s) << where;
      EXPECT_EQ(t.of_bytes, c.of_bytes) << where;
      EXPECT_EQ(t.of_s, c.of_s) << where;
      EXPECT_EQ(t.compute_s, static_cast<double>(c.cycles) *
                                 cycle_seconds(design.freq_mhz))
          << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, CostTermsZoo,
                         ::testing::ValuesIn(models::model_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lcmm::hw
