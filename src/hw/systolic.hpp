// Systolic-array accelerator description, following the output-stationary
// architecture of Wei et al., DAC'17 [18] — the accelerator the paper
// combines LCMM with.
//
// The PE array has three unroll dimensions:
//   rows  — output channels (an output-channel tile is exactly `rows` wide),
//   cols  — output pixels (linearized within a spatial tile),
//   simd  — input channels (vectorized MACs inside each PE).
// One MAC per DSP for fixed point, 5 DSPs per MAC for fp32.
#pragma once

#include <cstdint>
#include <string>

#include "hw/precision.hpp"

namespace lcmm::hw {

struct SystolicArrayConfig {
  int rows = 0;
  int cols = 0;
  int simd = 0;

  std::int64_t macs_per_cycle() const {
    return static_cast<std::int64_t>(rows) * cols * simd;
  }
  int dsp_cost(Precision p) const {
    return static_cast<int>(macs_per_cycle() * dsps_per_mac(p));
  }
  /// Peak arithmetic throughput in ops/s (2 ops per MAC).
  double peak_ops_per_sec(double freq_mhz) const {
    return 2.0 * static_cast<double>(macs_per_cycle()) * freq_mhz * 1e6;
  }
  bool valid() const { return rows > 0 && cols > 0 && simd > 0; }
  std::string to_string() const {
    return std::to_string(rows) + "x" + std::to_string(cols) + "x" +
           std::to_string(simd);
  }
  bool operator==(const SystolicArrayConfig&) const = default;
};

}  // namespace lcmm::hw
