#include <gtest/gtest.h>

#include "mem/ddr.hpp"
#include "mem/sram.hpp"

namespace lcmm::mem {
namespace {

hw::FpgaDevice vu9p() { return hw::FpgaDevice::vu9p(); }

TEST(Ddr, EfficiencyMonotoneInBurst) {
  DdrModel ddr(vu9p());
  double prev = 0.0;
  for (double burst : {16.0, 64.0, 256.0, 1024.0, 4096.0, 65536.0}) {
    const double eff = ddr.efficiency(burst);
    EXPECT_GE(eff, prev);
    EXPECT_LE(eff, kDdrMaxEfficiency + 1e-12);
    prev = eff;
  }
  EXPECT_DOUBLE_EQ(ddr.efficiency(0.0), 0.0);
}

TEST(Ddr, SaturatesAtCap) {
  DdrModel ddr(vu9p());
  EXPECT_NEAR(ddr.efficiency(1e9), kDdrMaxEfficiency, 1e-9);
}

TEST(Ddr, StreamSplitMatchesPaper) {
  // §2.2: 4 banks x 19.2 GB/s split over 3 streams = 25.6 GB/s each.
  DdrModel ddr(vu9p());
  EXPECT_NEAR(ddr.stream_peak_bytes_per_sec(), 25.6e9, 1e6);
}

TEST(Ddr, TransferSecondsScalesLinearly) {
  DdrModel ddr(vu9p());
  const double t1 = ddr.transfer_seconds(1e6, 1024.0);
  const double t2 = ddr.transfer_seconds(2e6, 1024.0);
  EXPECT_NEAR(t2 / t1, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(ddr.transfer_seconds(0.0, 1024.0), 0.0);
}

TEST(Ddr, ShorterBurstsAreSlower) {
  DdrModel ddr(vu9p());
  EXPECT_GT(ddr.transfer_seconds(1e6, 64.0), ddr.transfer_seconds(1e6, 4096.0));
}

TEST(Sram, BlockArithmetic) {
  EXPECT_EQ(SramPools::block_bytes(SramPool::kBram), 4608);
  EXPECT_EQ(SramPools::block_bytes(SramPool::kUram), 36864);
  EXPECT_EQ(SramPools::blocks_needed(1, SramPool::kUram), 1);
  EXPECT_EQ(SramPools::blocks_needed(36864, SramPool::kUram), 1);
  EXPECT_EQ(SramPools::blocks_needed(36865, SramPool::kUram), 2);
  EXPECT_THROW(SramPools::blocks_needed(0, SramPool::kUram), std::invalid_argument);
}

TEST(Sram, AllocatePreferredPool) {
  SramPools pools(100, 100);
  const auto a = pools.allocate(40000, SramPool::kUram);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->pool, SramPool::kUram);
  EXPECT_EQ(a->blocks, 2);
  EXPECT_EQ(pools.uram_used(), 2);
  EXPECT_EQ(pools.bram_used(), 0);
}

TEST(Sram, FallbackWhenPreferredExhausted) {
  SramPools pools(100, 1);
  const auto a = pools.allocate(40000, SramPool::kUram);  // needs 2 URAM
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->pool, SramPool::kBram);
  EXPECT_EQ(a->blocks, 9);  // ceil(40000/4608)
}

TEST(Sram, ExhaustionReturnsNullopt) {
  SramPools pools(1, 1);
  EXPECT_FALSE(pools.allocate(1 << 20, SramPool::kUram).has_value());
}

TEST(Sram, ReleaseReturnsBlocks) {
  SramPools pools(10, 10);
  const auto a = pools.allocate(100000, SramPool::kUram);
  ASSERT_TRUE(a.has_value());
  const int used = pools.uram_used();
  pools.release(*a);
  EXPECT_EQ(pools.uram_used(), used - a->blocks);
  EXPECT_THROW(pools.release(*a), std::logic_error);  // double release
}

TEST(Sram, UtilizationAndFreeBytes) {
  SramPools pools(10, 10);
  EXPECT_DOUBLE_EQ(pools.bram_utilization(), 0.0);
  const std::int64_t total_free = pools.free_bytes();
  (void)pools.allocate(4608 * 5, SramPool::kBram);
  EXPECT_DOUBLE_EQ(pools.bram_utilization(), 0.5);
  EXPECT_EQ(pools.free_bytes(), total_free - 5 * 4608);
}

TEST(Sram, ZeroUramPoolReportsZeroUtilization) {
  SramPools pools(10, 0);  // e.g. ZU9EG has no URAM
  EXPECT_DOUBLE_EQ(pools.uram_utilization(), 0.0);
  const auto a = pools.allocate(1000, SramPool::kUram);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->pool, SramPool::kBram);
}

TEST(Sram, NegativeBlocksThrow) {
  EXPECT_THROW(SramPools(-1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace lcmm::mem
