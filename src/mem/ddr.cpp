#include "mem/ddr.hpp"

#include "resil/error.hpp"

namespace lcmm::mem {

DdrModel::DdrModel(const hw::FpgaDevice& device) {
  const double total_peak_bytes_per_sec = device.ddr_peak_gbps_total() * 1e9;
  if (total_peak_bytes_per_sec <= 0.0) {
    throw resil::OptionError(resil::Code::kBadOptions, "mem.ddr",
                             "DdrModel: device has no DDR bandwidth");
  }
  stream_peak_bytes_per_sec_ = total_peak_bytes_per_sec / kDdrStreams;
}

}  // namespace lcmm::mem
