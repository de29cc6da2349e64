#include "mem/ddr.hpp"

#include "resil/error.hpp"

namespace lcmm::mem {

DdrModel::DdrModel(const hw::FpgaDevice& device, DdrModelOptions options)
    : total_peak_bytes_per_sec_(device.ddr_peak_gbps_total() * 1e9),
      options_(options) {
  if (options_.streams <= 0 || options_.max_efficiency <= 0.0 ||
      options_.max_efficiency > 1.0 || options_.burst_overhead_bytes < 0.0) {
    throw resil::OptionError(resil::Code::kBadOptions, "mem.ddr", "DdrModel: bad options");
  }
  if (total_peak_bytes_per_sec_ <= 0.0) {
    throw resil::OptionError(resil::Code::kBadOptions, "mem.ddr",
                             "DdrModel: device has no DDR bandwidth");
  }
  stream_peak_bytes_per_sec_ = total_peak_bytes_per_sec_ / options_.streams;
}

}  // namespace lcmm::mem
