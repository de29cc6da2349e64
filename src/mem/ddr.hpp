// Off-chip DDR4 bandwidth model.
//
// The paper (§2.2) assumes the VU9P's four DDR4 banks (19.2 GB/s each) are
// split so that each of the three concurrent tensor streams — input
// features, weights, output features — owns one third of the aggregate
// bandwidth (25.6 GB/s theoretical per stream). Real transfers of tile
// data never reach the theoretical number: every burst pays row-activation
// and protocol overhead, so short bursts see much lower efficiency. We model
// that with the standard saturating form
//     efficiency(burst) = burst / (burst + overhead)
// capped by a bank-level ceiling (refresh, bus turnaround).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "hw/device.hpp"

namespace lcmm::mem {

/// Fixed per-burst overhead expressed in equivalent data bytes (row
/// activation/precharge, address phases, read-write turnaround).
inline constexpr double kDdrBurstOverheadBytes = 512.0;
/// Upper bound on efficiency (refresh, turnaround, controller overhead).
/// Tiled accelerator access patterns on DDR4 typically sustain 60-70% of
/// the pin bandwidth; the paper's motivation (§2.2) depends on streams
/// falling well short of their 25.6 GB/s theoretical share.
inline constexpr double kDdrMaxEfficiency = 0.55;
/// Number of concurrent tensor streams sharing the banks (if/wt/of).
inline constexpr int kDdrStreams = 3;

class DdrModel {
 public:
  explicit DdrModel(const hw::FpgaDevice& device);

  /// Burst efficiency in (0, kDdrMaxEfficiency] for the given contiguous
  /// burst length in bytes.
  static double efficiency(double burst_bytes) {
    if (burst_bytes <= 0.0) return 0.0;
    const double raw = burst_bytes / (burst_bytes + kDdrBurstOverheadBytes);
    return raw < kDdrMaxEfficiency ? raw : kDdrMaxEfficiency;
  }

  /// Theoretical per-stream bandwidth in bytes/second (the paper's
  /// 25.6 GB/s figure for the VU9P).
  double stream_peak_bytes_per_sec() const { return stream_peak_bytes_per_sec_; }

  /// Effective per-stream bandwidth for transfers with the given burst
  /// length, bytes/second.
  double stream_bytes_per_sec(double burst_bytes) const {
    return stream_peak_bytes_per_sec_ * efficiency(burst_bytes);
  }

  /// Seconds to move `bytes` on one stream with the given burst length.
  /// Inline: the DSE evaluates it four times per stream-table cell.
  double transfer_seconds(double bytes, double burst_bytes) const {
    if (bytes <= 0.0) return 0.0;
    const double bw = stream_bytes_per_sec(burst_bytes);
    if (bw <= 0.0) throw std::logic_error("DdrModel: zero effective bandwidth");
    return bytes / bw;
  }

 private:
  double stream_peak_bytes_per_sec_ = 0.0;
};

}  // namespace lcmm::mem
