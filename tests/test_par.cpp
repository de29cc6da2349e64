// lcmm::par: worker-count policy, parallel_map and its helper threads, and
// the determinism contract — results, telemetry and errors must be
// indistinguishable between serial and parallel runs.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/batch.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"

namespace lcmm {
namespace {

/// Restores the process default worker count on scope exit so tests that
/// raise it cannot leak into later tests.
class DefaultJobsGuard {
 public:
  DefaultJobsGuard() : saved_(par::default_jobs()) {}
  ~DefaultJobsGuard() { par::set_default_jobs(saved_); }

 private:
  int saved_;
};

TEST(ParJobs, HardwareJobsAtLeastOne) {
  EXPECT_GE(par::hardware_jobs(), 1);
}

TEST(ParJobs, DefaultJobsRoundTrip) {
  DefaultJobsGuard guard;
  par::set_default_jobs(3);
  EXPECT_EQ(par::default_jobs(), 3);
  EXPECT_EQ(par::effective_jobs(0), 3);
  EXPECT_EQ(par::effective_jobs(7), 7);
  // Non-positive requests clamp to serial rather than exploding.
  par::set_default_jobs(0);
  EXPECT_EQ(par::default_jobs(), 1);
  EXPECT_EQ(par::effective_jobs(-2), 1);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(100);
    par::parallel_map(hits.size(), jobs,
                      [&](std::size_t i) { return hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelFor, SerialPathStaysOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  const auto ids = par::parallel_map(
      8, 1, [](std::size_t) { return std::this_thread::get_id(); });
  for (const std::thread::id id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, ZeroIterationsIsANoOp) {
  const auto out = par::parallel_map(0, 8, [](std::size_t) {
    ADD_FAILURE() << "body ran";
    return 0;
  });
  EXPECT_TRUE(out.empty());
}

TEST(ParallelFor, RethrowsLowestFailingIndex) {
  for (int jobs : {1, 4}) {
    try {
      par::parallel_map(64, jobs, [](std::size_t i) {
        if (i % 2 == 1) throw std::runtime_error("fail@" + std::to_string(i));
        return i;
      });
      FAIL() << "expected a throw (jobs " << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail@1") << "jobs " << jobs;
    }
  }
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  std::atomic<int> total{0};
  par::parallel_map(4, 4, [&](std::size_t) {
    return par::parallel_map(4, 4,
                             [&](std::size_t) { return total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ParallelMap, ResultsLandInIndexOrder) {
  const auto squares = par::parallel_map(
      50, 8, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(squares.size(), 50u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
}

/// Counts thread exits of threads that ran a HelpersAreJoinedBeforeReturn
/// body: each such thread constructs one ExitCounter on first touch.
std::atomic<int> g_thread_exits{0};

struct ExitCounter {
  ~ExitCounter() { g_thread_exits.fetch_add(1); }
};

TEST(ParallelMap, HelpersAreJoinedBeforeReturn) {
  // The latch holds every body until four distinct threads run at once:
  // the caller and three helpers. Each helper's thread_local is destroyed
  // when it exits, so three exits are counted by the time the call returns.
  g_thread_exits.store(0);
  std::latch all_running(4);
  par::parallel_map(4, 4, [&](std::size_t i) {
    all_running.arrive_and_wait();
    thread_local ExitCounter counter;
    return i;
  });
  EXPECT_EQ(g_thread_exits.load(), 3);
}

/// Scheduling-independent rendering of a registry: everything except the
/// wall-clock fields (start_s/dur_s vary run to run even serially).
std::string structural_fingerprint(const obs::CompileStats& stats) {
  std::ostringstream os;
  for (const obs::Span& s : stats.spans()) {
    os << "span " << s.name << " parent=" << s.parent << " depth=" << s.depth
       << " open=" << s.open;
    for (const auto& [k, v] : s.counters) os << " " << k << "=" << v;
    for (const auto& [k, v] : s.gauges) os << " " << k << "=" << v;
    os << "\n";
  }
  for (const auto& [k, v] : stats.root_counters()) {
    os << "root " << k << "=" << v << "\n";
  }
  for (const obs::Decision& d : stats.decisions()) {
    os << "decision " << d.pass << " " << d.subject << " " << d.bytes << " "
       << d.accepted << " " << d.reason << "\n";
  }
  return os.str();
}

std::string instrumented_sweep_fingerprint(int jobs) {
  obs::StatsSession session;
  {
    obs::ScopedSpan sweep("sweep");
    par::parallel_map(6, jobs, [](std::size_t i) {
      obs::ScopedSpan item("item");
      if (obs::CompileStats* sink = obs::current()) {
        sink->count("work", static_cast<std::int64_t>(i));
        sink->gauge("size", static_cast<double>(i) * 2.0);
        sink->decide("t" + std::to_string(i), 64, i % 2 == 0, "parity");
      }
      return i;
    });
  }
  return structural_fingerprint(session.stats());
}

TEST(ParallelFor, TelemetryMergesInSpawnOrder) {
  const std::string serial = instrumented_sweep_fingerprint(1);
  EXPECT_NE(serial.find("span sweep"), std::string::npos);
  EXPECT_NE(serial.find("decision item t5"), std::string::npos);
  for (int jobs : {2, 8}) {
    EXPECT_EQ(instrumented_sweep_fingerprint(jobs), serial)
        << "jobs " << jobs;
  }
}

TEST(Batch, CompileManyMatchesSerialCompilation) {
  std::vector<driver::BatchJob> jobs;
  for (const char* name : {"alexnet", "squeezenet"}) {
    for (hw::Precision p : {hw::Precision::kInt8, hw::Precision::kInt16}) {
      jobs.push_back({.graph = models::build_by_name(name),
                      .device = hw::FpgaDevice::vu9p(),
                      .precision = p});
    }
  }
  const auto serial = driver::compile_many(jobs, 1);
  const auto parallel = driver::compile_many(jobs, 8);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    EXPECT_EQ(serial[i].umm_sim.total_s, parallel[i].umm_sim.total_s) << i;
    EXPECT_EQ(serial[i].lcmm_sim.total_s, parallel[i].lcmm_sim.total_s) << i;
    EXPECT_EQ(serial[i].umm_report.latency_ms, parallel[i].umm_report.latency_ms)
        << i;
    EXPECT_EQ(serial[i].lcmm_report.latency_ms,
              parallel[i].lcmm_report.latency_ms)
        << i;
    EXPECT_EQ(serial[i].lcmm_plan.buffers.size(),
              parallel[i].lcmm_plan.buffers.size())
        << i;
  }
}

TEST(Batch, SharedBaselineOutcomesAreWorkerCountIndependent) {
  // Each job's UMM plan is the baseline its LCMM compile shares; reports
  // and plan latencies repeat exactly at 1 and 4 workers.
  std::vector<driver::BatchJob> jobs;
  for (const char* name : {"alexnet", "squeezenet", "resnet18"}) {
    for (hw::Precision p : {hw::Precision::kInt8, hw::Precision::kFp32}) {
      jobs.push_back({.graph = models::build_by_name(name),
                      .device = hw::FpgaDevice::u250(),
                      .precision = p});
    }
  }
  const auto serial = driver::compile_many(jobs, 1);
  const auto parallel = driver::compile_many(jobs, 4);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  const auto same_report = [](const sim::DesignReport& a,
                              const sim::DesignReport& b) {
    return a.is_umm == b.is_umm && a.rung == b.rung &&
           a.latency_ms == b.latency_ms && a.tops == b.tops &&
           a.freq_mhz == b.freq_mhz && a.dsp_util == b.dsp_util &&
           a.clb_util == b.clb_util && a.sram_util == b.sram_util &&
           a.bram_util == b.bram_util && a.uram_util == b.uram_util &&
           a.pol == b.pol && a.total_stall_ms == b.total_stall_ms &&
           a.num_on_chip_buffers == b.num_on_chip_buffers &&
           a.tensor_buffer_bytes == b.tensor_buffer_bytes;
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    EXPECT_TRUE(same_report(serial[i].umm_report, parallel[i].umm_report)) << i;
    EXPECT_TRUE(same_report(serial[i].lcmm_report, parallel[i].lcmm_report))
        << i;
    for (auto plans :
         {&driver::BatchOutcome::umm_plan, &driver::BatchOutcome::lcmm_plan}) {
      const core::AllocationPlan& a = serial[i].*plans;
      const core::AllocationPlan& b = parallel[i].*plans;
      EXPECT_EQ(a.est_latency_s, b.est_latency_s) << i;
      EXPECT_EQ(a.umm_latency_s, b.umm_latency_s) << i;
      EXPECT_EQ(a.design.array, b.design.array) << i;
      EXPECT_EQ(a.design.tile, b.design.tile) << i;
    }
  }
}

TEST(Batch, CompileStatsAreWorkerCountIndependent) {
  // The --stats-json contract: a full instrumented compile collects a
  // structurally identical registry whatever the worker count (wall-clock
  // fields aside — those differ between two serial runs too).
  const auto fingerprint = [](int workers) {
    std::vector<driver::BatchJob> jobs;
    jobs.push_back({.graph = models::build_by_name("googlenet"),
                    .device = hw::FpgaDevice::vu9p(),
                    .precision = hw::Precision::kInt16});
    jobs.push_back({.graph = models::build_by_name("alexnet"),
                    .device = hw::FpgaDevice::vu9p(),
                    .precision = hw::Precision::kInt8});
    obs::StatsSession session;
    const auto outcomes = driver::compile_many(jobs, workers);
    for (const auto& o : outcomes) EXPECT_TRUE(o.ok()) << o.error;
    return structural_fingerprint(session.stats());
  };
  const std::string serial = fingerprint(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(fingerprint(8), serial);
}

TEST(Batch, FailedJobReportsErrorWithoutKillingTheSweep) {
  std::vector<driver::BatchJob> jobs;
  jobs.push_back({.graph = models::build_by_name("alexnet"),
                  .device = hw::FpgaDevice::vu9p(),
                  .precision = hw::Precision::kInt16});
  // A device with no DSPs has no feasible design; its job must fail in
  // isolation (Dse::explore throws inside the worker).
  hw::FpgaDevice no_dsps = hw::FpgaDevice::vu9p();
  no_dsps.dsp_total = 0;
  jobs.push_back({.graph = models::build_by_name("alexnet"),
                  .device = no_dsps,
                  .precision = hw::Precision::kInt16});
  const auto outcomes = driver::compile_many(jobs, 2);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_FALSE(outcomes[1].error.empty());
}

}  // namespace
}  // namespace lcmm
