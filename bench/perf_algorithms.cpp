// Algorithm-runtime microbenchmarks (google-benchmark): the compile-time
// cost of each LCMM pass on the real networks. The paper's framework runs
// inside a DSE loop, so pass runtime matters.
//
// Unlike the table/figure benches this binary measures host wall-clock
// only, so its lcmm::bench document carries wall-kind metrics exclusively
// — recorded for trend plots, never gated by lcmm_bench_diff. The custom
// main below strips the harness's --json=<path> before handing the rest
// of argv to google-benchmark.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench.hpp"
#include "lcmm.hpp"

namespace {

using namespace lcmm;

const graph::ComputationGraph& cached_model(const std::string& name) {
  static std::map<std::string, graph::ComputationGraph> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, models::build_by_name(name)).first;
  }
  return it->second;
}

hw::AcceleratorDesign design_for(const graph::ComputationGraph& g) {
  const hw::Dse dse(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, {});
  return dse.explore(g).design;
}

void BM_ModelBuild(benchmark::State& state, const char* name) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::build_by_name(name).num_layers());
  }
}
BENCHMARK_CAPTURE(BM_ModelBuild, resnet152, "resnet152");
BENCHMARK_CAPTURE(BM_ModelBuild, inception_v4, "inception_v4");

void BM_PerfModel(benchmark::State& state, const char* name) {
  const auto& g = cached_model(name);
  const auto design = design_for(g);
  for (auto _ : state) {
    hw::PerfModel model(g, design);
    benchmark::DoNotOptimize(model.umm_total_latency());
  }
}
BENCHMARK_CAPTURE(BM_PerfModel, resnet152, "resnet152");
BENCHMARK_CAPTURE(BM_PerfModel, inception_v4, "inception_v4");

void BM_LivenessAndColoring(benchmark::State& state, const char* name) {
  const auto& g = cached_model(name);
  const auto design = design_for(g);
  hw::PerfModel model(g, design);
  core::LivenessOptions opt;
  opt.include_compute_bound = true;
  for (auto _ : state) {
    core::InterferenceGraph ig(core::build_feature_entities(model, opt));
    benchmark::DoNotOptimize(core::color_min_total_size(ig).total_bytes);
  }
}
BENCHMARK_CAPTURE(BM_LivenessAndColoring, resnet152, "resnet152");
BENCHMARK_CAPTURE(BM_LivenessAndColoring, inception_v4, "inception_v4");

void BM_DnnkAllocation(benchmark::State& state, const char* name) {
  const auto& g = cached_model(name);
  const auto design = design_for(g);
  hw::PerfModel model(g, design);
  core::LatencyTables tables(model);
  core::LivenessOptions opt;
  opt.include_compute_bound = true;
  core::InterferenceGraph ig(core::build_feature_entities(model, opt));
  const auto buffers =
      core::build_virtual_buffers(ig, core::color_min_total_size(ig));
  const std::int64_t cap = std::int64_t{16} << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::dnnk_allocate(ig, buffers, tables, cap).gain_s);
  }
  state.counters["buffers"] = static_cast<double>(buffers.size());
}
BENCHMARK_CAPTURE(BM_DnnkAllocation, resnet152, "resnet152");
BENCHMARK_CAPTURE(BM_DnnkAllocation, inception_v4, "inception_v4");

// DSE candidate evaluation with 1 worker vs all cores: the ISSUE's
// headline parallel win. Same argmin for every thread count.
void BM_DseExplore(benchmark::State& state, const char* name) {
  const auto& g = cached_model(name);
  hw::DseOptions opt;
  opt.jobs = static_cast<int>(state.range(0));
  const hw::Dse dse(hw::FpgaDevice::vu9p(), hw::Precision::kInt16, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dse.explore(g).objective_latency_s);
  }
  state.counters["jobs"] = static_cast<double>(opt.jobs);
}
BENCHMARK_CAPTURE(BM_DseExplore, resnet152, "resnet152")
    ->Arg(1)
    ->Arg(static_cast<std::int64_t>(lcmm::par::hardware_jobs()));
BENCHMARK_CAPTURE(BM_DseExplore, inception_v4, "inception_v4")
    ->Arg(1)
    ->Arg(static_cast<std::int64_t>(lcmm::par::hardware_jobs()));

// The full models x precisions sweep through the batch driver, serial vs
// all cores — what bench/table1_main.cpp runs.
void BM_CompileMany(benchmark::State& state) {
  std::vector<driver::BatchJob> jobs;
  for (const char* name : {"resnet152", "googlenet", "inception_v4"}) {
    for (hw::Precision p :
         {hw::Precision::kInt8, hw::Precision::kInt16, hw::Precision::kFp32}) {
      jobs.push_back({.graph = cached_model(name),
                      .device = hw::FpgaDevice::vu9p(),
                      .precision = p});
    }
  }
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver::compile_many(jobs, workers).size());
  }
  state.counters["jobs"] = static_cast<double>(workers);
}
BENCHMARK(BM_CompileMany)
    ->Arg(1)
    ->Arg(static_cast<std::int64_t>(lcmm::par::hardware_jobs()))
    ->Unit(benchmark::kMillisecond);

void BM_FullCompile(benchmark::State& state, const char* name) {
  const auto& g = cached_model(name);
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler.compile(g).est_latency_s);
  }
}
BENCHMARK_CAPTURE(BM_FullCompile, resnet152, "resnet152");
BENCHMARK_CAPTURE(BM_FullCompile, googlenet, "googlenet");
BENCHMARK_CAPTURE(BM_FullCompile, inception_v4, "inception_v4");

void BM_Simulate(benchmark::State& state, const char* name) {
  const auto& g = cached_model(name);
  core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
  const auto plan = compiler.compile(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(g, plan).total_s);
  }
}
BENCHMARK_CAPTURE(BM_Simulate, resnet152, "resnet152");
BENCHMARK_CAPTURE(BM_Simulate, inception_v4, "inception_v4");

/// Forwards each finished benchmark's wall time into the harness run.
class HarnessReporter : public benchmark::ConsoleReporter {
 public:
  explicit HarnessReporter(lcmm::bench::BenchRun& run) : run_(&run) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      // On a 1-core host Arg(1)->Arg(hardware_jobs()) registers the same
      // name twice; keep the first measurement instead of tripping the
      // harness's duplicate-key guard.
      if (!seen_.insert(r.benchmark_name()).second) continue;
      const double iters = r.iterations > 0 ? static_cast<double>(r.iterations)
                                            : 1.0;
      run_->add_wall("real_time_s", r.real_accumulated_time / iters,
                     {{"benchmark", r.benchmark_name()}});
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  lcmm::bench::BenchRun* run_;
  std::set<std::string> seen_;
};

}  // namespace

int main(int argc, char** argv) {
  // Split argv: the harness owns --json=<path>; google-benchmark owns the
  // --benchmark_* flags and must not see ours.
  std::vector<char*> gbench_args{argv[0]};
  std::vector<char*> harness_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      harness_args.push_back(argv[i]);
    } else {
      gbench_args.push_back(argv[i]);
    }
  }
  int harness_argc = static_cast<int>(harness_args.size());
  lcmm::bench::Harness harness(harness_argc, harness_args.data(),
                               "perf_algorithms");

  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                             gbench_args.data())) {
    return 2;
  }
  HarnessReporter reporter(harness.run());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return harness.finish();
}
