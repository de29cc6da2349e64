#include "oracle/dse.hpp"

#include <cmath>
#include <optional>
#include <tuple>

#include "resil/error.hpp"

namespace lcmm::oracle {

std::vector<hw::TileConfig> tile_candidates(
    const graph::ComputationGraph& graph, const hw::FpgaDevice& device,
    hw::Precision precision, const hw::SystolicArrayConfig& array) {
  const std::int64_t budget = hw::Dse(device, precision).tile_bram_budget();
  std::vector<hw::TileConfig> out;
  for (const int tc : hw::kMenuTc) {
    for (const int s : hw::kMenuSpatial) {
      const hw::TileConfig tile{tc, s, s};
      if (tc >= array.simd &&
          hw::tile_buffer_bytes(graph, array, tile, precision).total() <=
              budget) {
        out.push_back(tile);
      }
    }
  }
  return out;
}

hw::DseResult explore(const graph::ComputationGraph& graph,
                      const hw::FpgaDevice& device, hw::Precision precision,
                      bool heavy_uram_use, const Objective& objective) {
  const std::vector<hw::DseCandidate> menu =
      hw::Dse(device, precision).space(graph).menu();
  hw::DseResult result;
  result.design.device = device;
  result.design.precision = precision;
  result.design.freq_mhz = device.clock_mhz(precision, heavy_uram_use);
  std::optional<std::tuple<double, int, std::size_t>> best;
  for (std::size_t i = 0; i < menu.size(); ++i) {
    result.design.array = menu[i].array;
    result.design.tile = menu[i].tile;
    const double latency = objective(result.design);
    if (!std::isfinite(latency)) continue;
    const std::tuple key{latency, menu[i].array.dsp_cost(precision), i};
    if (!best || key < *best) best = key;
  }
  if (!best) {
    throw resil::CompileError(resil::Code::kNoFeasibleDesign, "dse.explore",
                              "no candidate has a finite objective latency",
                              graph.name());
  }
  const std::size_t winner = std::get<2>(*best);
  result.design.array = menu[winner].array;
  result.design.tile = menu[winner].tile;
  result.objective_latency_s = std::get<0>(*best);
  return result;
}

}  // namespace lcmm::oracle
