// FPGA device resource descriptions. The paper evaluates on a Xilinx VU9P;
// a smaller ZU9EG is provided for tests that exercise tight budgets.
#pragma once

#include <cstdint>
#include <string>

#include "hw/precision.hpp"

namespace lcmm::hw {

struct FpgaDevice {
  std::string name;

  int dsp_total = 0;
  int bram36_total = 0;   // 36 Kbit block RAMs
  int uram_total = 0;     // 288 Kbit UltraRAMs
  std::int64_t logic_luts_total = 0;

  int ddr_banks = 0;
  double ddr_peak_gbps_per_bank = 0.0;  // GB/s, theoretical

  static constexpr std::int64_t kBram36Bytes = 36 * 1024 / 8;   // 4.5 KiB
  static constexpr std::int64_t kUramBytes = 288 * 1024 / 8;    // 36 KiB

  std::int64_t bram_bytes_total() const { return bram36_total * kBram36Bytes; }
  std::int64_t uram_bytes_total() const { return uram_total * kUramBytes; }
  std::int64_t sram_bytes_total() const {
    return bram_bytes_total() + uram_bytes_total();
  }
  double ddr_peak_gbps_total() const {
    return ddr_banks * ddr_peak_gbps_per_bank;
  }

  /// Achievable clock for a design at the given precision, in MHz. The
  /// values reproduce the paper's synthesis outcomes (Tab. 1): fixed point
  /// closes at 190 MHz, fp32 at 160-180 MHz, and heavy URAM usage (the LCMM
  /// designs) costs ~10 MHz of routing slack.
  double clock_mhz(Precision p, bool heavy_uram_use) const;

  /// Throws resil::OptionError (kBadOptions) when a resource count is
  /// negative or the DDR bandwidth is not a finite value >= 0. Zero values
  /// pass: a device without DSPs finds no design (LCMM-E611), and one
  /// without DDR bandwidth is rejected by mem::DdrModel.
  void validate() const;

  /// Xilinx Virtex UltraScale+ VU9P (the paper's platform).
  static FpgaDevice vu9p();
  /// Xilinx Zynq UltraScale+ ZU9EG (small device for stress tests).
  static FpgaDevice zu9eg();
  /// Xilinx Alveo U250 (bigger cloud card, same DDR4 generation).
  static FpgaDevice u250();
};

}  // namespace lcmm::hw
