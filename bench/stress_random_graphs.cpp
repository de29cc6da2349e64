// Generalization stress: LCMM on 60 random DAGs (chains, branches,
// concats, strided downsampling) across precisions — does the win
// generalize beyond the three hand-built benchmark networks, and does the
// "never worse than uniform" guarantee hold at scale? A job whose simulated
// speedup falls below 1.00x fails the run.
//
// All 60 (graph, precision) jobs compile concurrently through
// driver::compile_many; the stats below aggregate in seed order so the
// output is identical for every worker count.
//
// Then three large graphs (random_graph(7) with 500, 1500 and 3500 blocks:
// 884, 2587 and 6135 layers) compile one at a time for vu9p int16. Their
// plan latency, coloring candidates tried and simulated steps are
// deterministic and gated against bench/baselines/; a quadratic pass shows
// in the wall time, which is recorded but not gated.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace lcmm;
  bench::Harness harness(argc, argv, "stress_random_graphs");
  constexpr int kGraphs = 30;
  constexpr hw::Precision kPrecisions[] = {hw::Precision::kInt8,
                                           hw::Precision::kInt16};

  std::vector<driver::BatchJob> jobs;
  for (hw::Precision p : kPrecisions) {
    for (int seed = 1; seed <= kGraphs; ++seed) {
      jobs.push_back(
          {.graph = models::random_graph(static_cast<std::uint64_t>(seed)),
           .device = hw::FpgaDevice::vu9p(),
           .precision = p});
    }
  }
  const std::vector<driver::BatchOutcome> outcomes = driver::compile_many(
      jobs, par::jobs_from_env_or(par::hardware_jobs()));

  util::Table table({"precision", "graphs", "geomean speedup", "min", "max",
                     "wins (>1.01x)", "fallbacks (=1.00x)"});
  std::size_t next = 0;
  int below_floor = 0;
  for (hw::Precision p : kPrecisions) {
    std::vector<double> speedups;
    int fallbacks = 0;
    for (int seed = 1; seed <= kGraphs; ++seed, ++next) {
      const driver::BatchOutcome& r = outcomes[next];
      if (!r.ok()) {
        std::cerr << "stress job failed (seed " << seed << ", "
                  << hw::to_string(p) << "): " << r.error << "\n";
        return 1;
      }
      const double s = r.umm_sim.total_s / r.lcmm_sim.total_s;
      if (s < 1.0) {
        std::cerr << "stress job below the 1.00x floor (seed " << seed << ", "
                  << hw::to_string(p) << "): " << s << "x\n";
        ++below_floor;
      }
      speedups.push_back(s);
      fallbacks += s < 1.005;
    }
    double log_sum = 0.0;
    int wins = 0;
    for (double s : speedups) {
      log_sum += std::log(s);
      wins += s > 1.01;
    }
    table.add_row({hw::to_string(p), std::to_string(kGraphs),
                   util::fmt_fixed(std::exp(log_sum / kGraphs), 2) + "x",
                   util::fmt_fixed(*std::min_element(speedups.begin(),
                                                     speedups.end()), 2),
                   util::fmt_fixed(*std::max_element(speedups.begin(),
                                                     speedups.end()), 2),
                   std::to_string(wins), std::to_string(fallbacks)});
    const bench::Dims dims{{"precision", hw::to_string(p)}};
    harness.add("geomean_speedup", std::exp(log_sum / kGraphs), "x",
                bench::Direction::kHigherIsBetter, dims);
    harness.add("min_speedup",
                *std::min_element(speedups.begin(), speedups.end()), "x",
                bench::Direction::kHigherIsBetter, dims);
    harness.add("wins", wins, "count", bench::Direction::kHigherIsBetter,
                dims);
    harness.add("fallbacks", fallbacks, "count",
                bench::Direction::kLowerIsBetter, dims);
  }
  std::cout << "Random-graph stress: LCMM vs UMM on generated DAGs\n"
            << table
            << "The no-benefit fallback guarantees min >= 1.00x (checked: a "
               "job below it fails the run); wins track how often generated "
               "graphs have exploitable bottlenecks.\n";

  util::Table large({"layers", "latency (ms)", "colors tried",
                     "simulated steps", "compile (ms)"});
  for (const int blocks : {500, 1500, 3500}) {
    const graph::ComputationGraph graph = models::random_graph(
        7, {.min_layers = blocks, .max_layers = blocks});
    obs::StatsSession session;
    const auto start = std::chrono::steady_clock::now();
    core::LcmmCompiler compiler(hw::FpgaDevice::vu9p(), hw::Precision::kInt16);
    const core::AllocationPlan plan = compiler.compile(graph);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    const std::int64_t tried =
        session.stats().counter("coloring.candidates_tried");
    const std::int64_t steps = session.stats().counter("simulate.layers");
    const std::string layers = std::to_string(graph.num_layers());
    large.add_row({layers, util::fmt_fixed(plan.est_latency_s * 1e3, 3),
                   std::to_string(tried), std::to_string(steps),
                   util::fmt_fixed(wall_s * 1e3, 1)});
    const bench::Dims dims{{"layers", layers}};
    harness.add("large_latency_ms", plan.est_latency_s * 1e3, "ms",
                bench::Direction::kLowerIsBetter, dims);
    harness.add("large_coloring_candidates", static_cast<double>(tried),
                "count", bench::Direction::kLowerIsBetter, dims);
    harness.add("large_simulated_steps", static_cast<double>(steps), "count",
                bench::Direction::kLowerIsBetter, dims);
    harness.run().add_wall("large_compile_s", wall_s, dims);
  }
  std::cout << "\nLarge random graphs: one vu9p int16 compile each\n"
            << large;
  const int status = harness.finish();
  return below_floor > 0 ? 1 : status;
}
