#include "hw/device.hpp"

#include <cmath>

#include "resil/error.hpp"

namespace lcmm::hw {

double FpgaDevice::clock_mhz(Precision p, bool heavy_uram_use) const {
  double base = 190.0;
  if (p == Precision::kFp32) base = 170.0;
  if (heavy_uram_use) base -= 10.0;
  return base;
}

void FpgaDevice::validate() const {
  const auto reject = [&](const char* what) {
    throw resil::OptionError(resil::Code::kBadOptions, "hw.device",
                             "FpgaDevice " + name + ": " + what);
  };
  if (dsp_total < 0 || bram36_total < 0 || uram_total < 0 ||
      logic_luts_total < 0 || ddr_banks < 0) {
    reject("negative resource count");
  }
  if (!std::isfinite(ddr_peak_gbps_per_bank) || ddr_peak_gbps_per_bank < 0.0) {
    reject("DDR bandwidth must be finite and >= 0");
  }
}

FpgaDevice FpgaDevice::vu9p() {
  FpgaDevice d;
  d.name = "xcvu9p";
  d.dsp_total = 6840;
  d.bram36_total = 2160;
  d.uram_total = 960;
  d.logic_luts_total = 1182240;
  d.ddr_banks = 4;
  d.ddr_peak_gbps_per_bank = 19.2;
  return d;
}

FpgaDevice FpgaDevice::u250() {
  FpgaDevice d;
  d.name = "xcu250";
  d.dsp_total = 12288;
  d.bram36_total = 2688;
  d.uram_total = 1280;
  d.logic_luts_total = 1728000;
  d.ddr_banks = 4;
  d.ddr_peak_gbps_per_bank = 19.2;
  return d;
}

FpgaDevice FpgaDevice::zu9eg() {
  FpgaDevice d;
  d.name = "xczu9eg";
  d.dsp_total = 2520;
  d.bram36_total = 912;
  d.uram_total = 0;
  d.logic_luts_total = 274080;
  d.ddr_banks = 1;
  d.ddr_peak_gbps_per_bank = 19.2;
  return d;
}

}  // namespace lcmm::hw
