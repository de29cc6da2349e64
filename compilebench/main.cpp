// compile_bench: replays seeded compile requests against the library's
// public entry points and prints one JSON result line (see README.md).
//
//   compile_bench --workload zoo_zipf --seed 1 --seconds 20 --trace 0
//
// A request goes through io::parse_graph and driver::compile_many (UMM +
// LCMM + simulate/refine, as `lcmm_compile --design both`), one closed-loop
// client at a time. Every shipped plan is verified between requests, outside
// the timed region. --trace 0 prints the end-to-end metrics; --trace 1 runs
// the same stream with spans around each library call, replays the core
// passes on the shipped design, and prints the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/lcmm.hpp"
#include "core/liveness.hpp"
#include "driver/batch.hpp"
#include "hw/tiling.hpp"
#include "io/text_format.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "par/jobs.hpp"
#include "par/parallel_for.hpp"
#include "sim/report.hpp"
#include "sim/timeline.hpp"
#include "trace.hpp"
#include "util/logging.hpp"
#include "workload.hpp"

namespace compilebench {
namespace {

using namespace lcmm;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

std::string format(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr std::size_t kSetupRepeats = 15;
/// compiles_per_s is the median rate over this many equal slices of the
/// measured time, so a slow-down of a few seconds moves it little.
constexpr std::size_t kRateWindows = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Requests generated during set-up, and the fixed request prefix the
/// deterministic plan-quality metrics are taken over.
struct Sizes {
  std::size_t initial;
  std::size_t quality;
};

Sizes sizes_for(const std::string& workload) {
  if (workload == "zoo_zipf") return {256, 16384};
  return {2, 4};  // sweep_batch
}

/// Simulated latencies of one verified job, keyed by Job::key().
struct PlanLatency {
  double umm_ms = 0.0;
  double lcmm_ms = 0.0;
};

/// Library-side work and time behind one or more compile jobs, read from an
/// obs::StatsSession that was open while they ran.
struct LibraryTotals {
  double busy_s = 0.0;  ///< Serial compile time: top-level library spans.
  double dse_s = 0.0;
  double dse_calls = 0.0;
  double refine_s = 0.0;
  double refine_rounds = 0.0;
  double demoted_weights = 0.0;

  void add(const obs::CompileStats& stats) {
    for (const obs::Span& s : stats.spans()) {
      if (s.parent < 0) busy_s += s.dur_s;
    }
    dse_s += stats.span_seconds("dse");
    dse_calls += stats.span_count("dse");
    refine_s += stats.span_seconds("refine_stalls");
    refine_rounds += static_cast<double>(stats.counter("refine_stalls.rounds"));
    demoted_weights +=
        static_cast<double>(stats.counter("refine_stalls.demoted_weights"));
  }
};

/// Work counts of the replayed core passes, summed over jobs.
struct ReplayTotals {
  double jobs = 0.0;
  double dnnk_s = 0.0, coloring_s = 0.0, splitting_self_s = 0.0;
  double dnnk_calls = 0.0, dp_cells = 0.0;
  double pairs = 0.0, edges = 0.0, candidates = 0.0, coloring_calls = 0.0;
  double splits = 0.0;
  double prefetch_edges = 0.0, prefetch_hidden = 0.0;
  double buffers = 0.0, selected = 0.0;
};

struct RunState {
  Workload w;
  Tracer* tracer = nullptr;

  std::vector<double> latencies_s;  ///< Per request (a batch on sweep_batch).
  std::vector<std::size_t> completed;  ///< Request index of each latency.
  double measured_s = 0.0;
  std::size_t jobs_done = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, PlanLatency> plans;
  /// Round 0 of sweep_batch, compiled on the workload's worker count.
  std::vector<std::uint64_t> round0_fingerprint;
  double round0_wall_s = 0.0;
  /// Distinct verified jobs, and those whose simulated LCMM latency
  /// exceeds UMM's.
  double verified = 0.0;
  double sim_slower = 0.0;

  // Traced run only.
  LibraryTotals library;
  ReplayTotals replay;
  double parse_bytes = 0.0;
  double check_errors = 0.0;
  double degraded = 0.0;
  double attempts = 0.0;
  double promoted = 0.0;
};

std::vector<driver::BatchJob> parse_jobs(RunState& run, const Request& r,
                                         int request) {
  std::vector<driver::BatchJob> jobs;
  jobs.reserve(r.jobs.size());
  for (const Job& job : r.jobs) {
    const std::string& text = run.w.graph_texts[job.graph];
    if (run.tracer) run.parse_bytes += static_cast<double>(text.size());
    graph::ComputationGraph g = [&] {
      Scope span(run.tracer, "io.parse_graph", request);
      return io::parse_graph(text);
    }();
    core::LcmmOptions options;
    options.sram_capacity_fraction = job.sram_capacity_fraction;
    jobs.push_back(driver::BatchJob{.graph = std::move(g),
                                    .device = device_by_name(job.device),
                                    .precision = job.precision,
                                    .options = options,
                                    .label = job.key()});
  }
  return jobs;
}

/// The driver's per-job steps, called one by one so each gets a span.
driver::BatchOutcome compile_job_traced(Tracer* tracer, const driver::BatchJob& job,
                                        int request) {
  driver::BatchOutcome out;
  out.label = job.label;
  out.attempts = 1;
  try {
    const core::LcmmCompiler compiler(job.device, job.precision, job.options);
    {
      Scope span(tracer, "core.compile_umm", request);
      out.umm_plan = compiler.compile_umm(job.graph);
    }
    {
      Scope span(tracer, "sim.simulate", request);
      out.umm_sim = sim::simulate(job.graph, out.umm_plan);
      out.umm_report = sim::make_report(job.graph, out.umm_plan, out.umm_sim);
    }
    {
      Scope span(tracer, "core.compile", request);
      out.lcmm_plan = compiler.compile(job.graph);
    }
    {
      Scope span(tracer, "sim.refine_against_stalls", request);
      out.lcmm_sim = sim::refine_against_stalls(job.graph, out.lcmm_plan);
    }
    Scope span(tracer, "sim.make_report", request);
    out.lcmm_report = sim::make_report(job.graph, out.lcmm_plan, out.lcmm_sim);
  } catch (const std::exception& e) {
    out.error = e.what();
    if (out.error.empty()) out.error = "unknown error";
  }
  return out;
}

struct Compiled {
  std::vector<driver::BatchJob> jobs;
  std::vector<driver::BatchOutcome> outcomes;
  double seconds = 0.0;
};

/// One request: parse every job, then compile. The returned time covers
/// exactly that; a traced single-job request bypasses compile_many so each
/// driver step is its own span.
Compiled run_request(RunState& run, const Request& r, int request, int workers) {
  Compiled c;
  const auto t0 = Clock::now();
  {
    Scope span(run.tracer, "request", request);
    c.jobs = parse_jobs(run, r, request);
    if (run.tracer) {
      obs::StatsSession session;
      if (c.jobs.size() == 1) {
        c.outcomes.push_back(compile_job_traced(run.tracer, c.jobs[0], request));
      } else {
        Scope batch(run.tracer, "driver.compile_many", request);
        c.outcomes = driver::compile_many(c.jobs, workers);
      }
      run.library.add(session.stats());
    } else {
      c.outcomes = driver::compile_many(c.jobs, workers);
    }
  }
  c.seconds = since(t0);
  return c;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> fingerprint(const std::vector<driver::BatchOutcome>& outs) {
  std::vector<std::uint64_t> f;
  for (const driver::BatchOutcome& o : outs) {
    f.push_back(o.ok());
    f.push_back(bits(o.umm_sim.total_s));
    f.push_back(bits(o.lcmm_sim.total_s));
    f.push_back(bits(o.lcmm_plan.est_latency_s));
    f.push_back(static_cast<std::uint64_t>(o.lcmm_plan.physical.size()));
  }
  return f;
}

/// Verifies every job of a compiled request (untimed): it compiled, its plan
/// passes check::run_checks with no error, and a repeated job reproduces its
/// first plan latencies bit for bit. Returns the number of failing jobs.
std::size_t verify(RunState& run, const Request& r, const Compiled& c, int request) {
  Scope span(run.tracer, "check.run_checks", request);
  std::vector<int> fresh(c.jobs.size(), 0);
  std::set<std::string> seen;
  for (std::size_t k = 0; k < c.jobs.size(); ++k) {
    const std::string key = r.jobs[k].key();
    fresh[k] = !run.plans.count(key) && seen.insert(key).second;
  }
  const std::vector<int> errors =
      par::parallel_map(c.jobs.size(), run.w.workers, [&](std::size_t k) {
        const driver::BatchOutcome& o = c.outcomes[k];
        if (!o.ok()) return 1;
        if (!fresh[k]) return 0;
        return check::run_checks(c.jobs[k].graph, o.lcmm_plan,
                                 check::CheckOptions::from(c.jobs[k].options))
            .num_errors();
      });
  std::size_t failed = 0;
  for (std::size_t k = 0; k < c.jobs.size(); ++k) {
    const driver::BatchOutcome& o = c.outcomes[k];
    bool ok = o.ok() && errors[k] == 0;
    if (o.ok()) {
      run.check_errors += errors[k];
      const PlanLatency p{o.umm_sim.total_s * 1e3, o.lcmm_sim.total_s * 1e3};
      const auto [it, inserted] = run.plans.emplace(r.jobs[k].key(), p);
      ok = ok && (inserted || (bits(it->second.lcmm_ms) == bits(p.lcmm_ms) &&
                               bits(it->second.umm_ms) == bits(p.umm_ms)));
      // A plan that simulates slower than UMM is a quality finding, not a
      // failure: the no-benefit fallback compares Eq. 1 estimates, and
      // stall refinement can leave the simulated latency above UMM's.
      if (inserted) {
        run.verified += 1.0;
        run.sim_slower += p.lcmm_ms > p.umm_ms;
      }
    }
    if (!ok) {
      std::cerr << "compile_bench: job '" << r.jobs[k].key() << "' failed";
      if (o.ok()) {
        std::cerr << " verification: " << errors[k] << " check error(s), LCMM "
                  << format(o.lcmm_sim.total_s * 1e3) << " ms vs UMM "
                  << format(o.umm_sim.total_s * 1e3) << " ms";
      } else {
        std::cerr << ": " << o.error;
      }
      std::cerr << "\n";
      ++failed;
    }
  }
  return failed;
}

/// Replays the core passes through their public functions on the job's
/// graph and shipped design, one call each, under benchmark spans.
void replay(RunState& run, const driver::BatchJob& job,
            const driver::BatchOutcome& out, int request) {
  ReplayTotals& t = run.replay;
  t.jobs += 1.0;
  for (const core::PhysicalBuffer& b : out.lcmm_plan.physical) {
    run.promoted += b.buffer.id < 0;
  }
  run.degraded += out.lcmm_plan.rung != resil::Rung::kFullLcmm;
  run.attempts += out.attempts;

  Tracer* tracer = run.tracer;
  Scope root(tracer, "replay", request);
  const core::LcmmOptions& options = job.options;
  const hw::AcceleratorDesign& design = out.lcmm_plan.design;
  std::optional<hw::PerfModel> model;
  std::optional<core::LatencyTables> tables;
  {
    Scope span(tracer, "core.latency_tables", request);
    model.emplace(job.graph, design);
    tables.emplace(*model);
  }
  {
    Scope span(tracer, "hw.dse", request);
    hw::DseOptions dse = options.dse;
    dse.heavy_uram_use = true;
    hw::Dse(job.device, job.precision, dse).explore(job.graph);
  }
  std::vector<core::TensorEntity> entities;
  {
    Scope span(tracer, "core.liveness", request);
    entities = core::build_feature_entities(*model, options.liveness);
  }
  {
    Scope span(tracer, "core.prefetch", request);
    const core::PrefetchResult prefetch =
        core::build_prefetch_schedule(*model, options.liveness);
    std::vector<core::TensorEntity> weights =
        core::build_weight_entities(*model, prefetch);
    entities.insert(entities.end(), weights.begin(), weights.end());
    t.prefetch_edges += static_cast<double>(prefetch.edges().size());
    t.prefetch_hidden += prefetch.num_fully_hidden();
  }
  const hw::TileBufferBytes tiles =
      hw::tile_buffer_bytes(job.graph, design.array, design.tile, job.precision);
  const std::int64_t capacity = static_cast<std::int64_t>(
      static_cast<double>(std::max<std::int64_t>(
          0, job.device.sram_bytes_total() - tiles.total())) *
      options.sram_capacity_fraction);
  std::optional<core::InterferenceGraph> ig;
  {
    Scope span(tracer, "core.interference", request);
    ig.emplace(std::move(entities));
  }
  t.pairs += static_cast<double>(ig->adjacency_cells());
  t.edges += static_cast<double>(ig->num_edges());
  // Buffer splitting runs the coloring and DNNK rounds itself (one each,
  // plus one per split), as the compiler's allocation does. Only this call
  // runs under library telemetry, which divides its time between rounds.
  obs::StatsSession session;
  core::SplitOutcome split;
  const auto split_start = Clock::now();
  {
    Scope span(tracer, "core.splitting", request);
    split = core::split_and_reallocate(*ig, *tables, capacity, options.alloc,
                                       options.split);
  }
  const double split_s = since(split_start);
  t.splits += split.splits_performed;
  t.buffers += static_cast<double>(split.buffers.size());
  t.selected += static_cast<double>(std::count(split.allocation.buffer_on_chip.begin(),
                                               split.allocation.buffer_on_chip.end(),
                                               true));

  const obs::CompileStats& stats = session.stats();
  const double coloring_s = stats.span_seconds("coloring");
  const double dnnk_s = stats.span_seconds("dnnk");
  t.coloring_s += coloring_s;
  t.dnnk_s += dnnk_s;
  t.splitting_self_s += split_s - coloring_s - dnnk_s;
  t.coloring_calls += stats.span_count("coloring");
  t.dnnk_calls += stats.span_count("dnnk");
  t.dp_cells += static_cast<double>(stats.counter("dnnk.dp_cells"));
  t.candidates += static_cast<double>(stats.counter("coloring.candidates_tried"));
}

/// Compiles jobs outside the timed loop (the quality sample's unreached
/// prefix, or the 1-worker equality round) and verifies them.
Compiled compile_untimed(RunState& run, const Request& r, int workers) {
  Tracer* tracer = run.tracer;
  run.tracer = nullptr;
  Compiled c = run_request(run, r, -1, workers);
  run.tracer = tracer;
  ++run.attempted;
  run.failed += verify(run, r, c, -1) > 0;
  return c;
}

double setup_once(const Args& args, Workload& out) {
  const auto t0 = Clock::now();
  Workload w = make_workload(args.workload, args.seed, sizes_for(args.workload).initial);
  // Warm the par pool (and the allocator) with one untimed request.
  std::vector<driver::BatchJob> warm;
  for (int i = 0; i < w.workers; ++i) {
    warm.push_back(driver::BatchJob{.graph = models::build_alexnet(),
                                    .options = {},
                                    .label = "warm"});
  }
  for (const driver::BatchOutcome& o : driver::compile_many(warm, w.workers)) {
    if (!o.ok()) throw std::runtime_error("warm-up request failed: " + o.error);
  }
  out = std::move(w);
  return since(t0);
}

/// Mean of the sorted samples ranked in [lo, hi) of n (at least one): a
/// quantile that moves smoothly when a seed shifts the request mix across the
/// step between two configurations' latencies.
double band_mean(const std::vector<double>& sorted, double lo, double hi) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  const std::size_t end = std::min(
      n, std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(hi * n))));
  const std::size_t begin = std::min(end - 1, static_cast<std::size_t>(lo * n));
  return std::accumulate(sorted.begin() + begin, sorted.begin() + end, 0.0) /
         static_cast<double>(end - begin);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run_benchmark(const Args& args) {
  util::set_log_level(util::LogLevel::kError);
  // DSE inside a job evaluates candidates on the workload's workers; a batch
  // compiles its jobs on the same threads.
  const int workers = workers_for(args.workload);
  par::set_default_jobs(workers);

  RunState run;
  // The first set-up's workload is measured. The others are spread over the
  // run, so their median does not hinge on the host's state at start.
  std::vector<double> setups{setup_once(args, run.w)};
  const auto setup_again = [&] {
    Workload scratch;
    setups.push_back(setup_once(args, scratch));
  };

  Tracer tracer;
  if (args.trace) run.tracer = &tracer;
  const bool batch = run.w.name == "sweep_batch";

  // Closed loop: one client, next request after the previous plan is back.
  // The clock counts request time only; verification and (when traced) the
  // replay run between requests.
  const auto loop_start = Clock::now();
  const double wall_cap = args.trace ? args.seconds : 3.0 * args.seconds;
  for (std::size_t i = 0; run.measured_s < args.seconds && since(loop_start) < wall_cap;
       ++i) {
    extend_workload(run.w, i + 1);
    const Request& r = run.w.requests[i];
    const int id = static_cast<int>(i);
    Compiled c;
    ++run.attempted;
    try {
      c = run_request(run, r, id, run.w.workers);
    } catch (const std::exception& e) {
      std::cerr << "compile_bench: request " << i << " threw: " << e.what() << "\n";
      ++run.failed;
      continue;
    }
    run.latencies_s.push_back(c.seconds);
    run.completed.push_back(i);
    run.measured_s += c.seconds;
    run.jobs_done += r.jobs.size();
    run.failed += verify(run, r, c, id) > 0;
    while (setups.size() < kSetupRepeats &&
           run.measured_s * kSetupRepeats >= args.seconds * setups.size()) {
      setup_again();
    }
    if (i == 0 && batch) {
      run.round0_fingerprint = fingerprint(c.outcomes);
      run.round0_wall_s = c.seconds;
    }
    if (args.trace) {
      for (std::size_t k = 0; k < c.jobs.size(); ++k) {
        if (c.outcomes[k].ok()) replay(run, c.jobs[k], c.outcomes[k], id);
      }
    }
  }
  while (setups.size() < kSetupRepeats) setup_again();
  const Descriptors input = describe(run.w, run.latencies_s.size());

  // Deterministic plan quality over a fixed request prefix; jobs the loop
  // did not reach are compiled here, untimed.
  const std::size_t quality = sizes_for(run.w.name).quality;
  extend_workload(run.w, quality);
  Request missing;
  std::set<std::string> queued;
  for (std::size_t i = 0; i < quality; ++i) {
    for (const Job& job : run.w.requests[i].jobs) {
      if (!run.plans.count(job.key()) && queued.insert(job.key()).second) {
        missing.jobs.push_back(job);
      }
    }
  }
  if (!missing.jobs.empty()) {
    compile_untimed(run, missing, run.w.workers);
  }
  double log_speedup = 0.0, log_latency = 0.0, quality_jobs = 0.0;
  for (std::size_t i = 0; i < quality; ++i) {
    for (const Job& job : run.w.requests[i].jobs) {
      const auto it = run.plans.find(job.key());
      if (it == run.plans.end() || it->second.lcmm_ms <= 0) continue;
      log_speedup += std::log(it->second.umm_ms / it->second.lcmm_ms);
      log_latency += std::log(it->second.lcmm_ms);
      quality_jobs += 1.0;
    }
  }

  // One sweep round on 1 worker must equal the same round on many.
  double serial_round_s = 0.0;
  if (batch && !run.round0_fingerprint.empty()) {
    par::set_default_jobs(1);
    const Compiled serial = compile_untimed(run, run.w.requests[0], 1);
    par::set_default_jobs(workers);
    serial_round_s = serial.seconds;
    if (fingerprint(serial.outcomes) != run.round0_fingerprint) {
      std::cerr << "compile_bench: sweep round 0 differs between 1 and "
                << run.w.workers << " workers\n";
      ++run.failed;
    }
  }

  std::vector<Metric> metrics;
  const double fail_ratio = ratio(static_cast<double>(run.failed),
                                  static_cast<double>(run.attempted));
  if (!args.trace) {
    std::vector<double> sorted = run.latencies_s;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    // p50 and p90 as the means of the p40-p60 and p85-p95 bands. Higher
    // percentiles rest on a few rare heavy requests, so they swing with the
    // seed and with host slow-downs.
    const double p50 = band_mean(sorted, 0.40, 0.60);
    const double tail = band_mean(sorted, 0.85, 0.95);
    // Jobs per second in each of kRateWindows equal slices of the measured
    // time (a request counts in the slice it ends in), and their median.
    std::vector<double> window_jobs(kRateWindows), window_s(kRateWindows);
    double elapsed = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      elapsed += run.latencies_s[k];
      const std::size_t slice = std::min(
          kRateWindows - 1,
          static_cast<std::size_t>(elapsed / run.measured_s * kRateWindows));
      window_jobs[slice] += static_cast<double>(run.w.requests[run.completed[k]].jobs.size());
      window_s[slice] += run.latencies_s[k];
    }
    std::vector<double> rates;
    for (std::size_t w = 0; w < kRateWindows; ++w) {
      if (window_s[w] > 0) rates.push_back(window_jobs[w] / window_s[w]);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"setup_s", median(setups), "s"},
        {"compile_p50_ms", p50 * 1e3, "ms"},
        {"compile_tail_ms", tail * 1e3, "ms"},
        {"compiles_per_s", median(rates), "1/s"},
        {"plan_speedup_geomean", std::exp(ratio(log_speedup, quality_jobs)), "x"},
        {"plan_latency_geomean_ms", std::exp(ratio(log_latency, quality_jobs)), "ms"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
    };
    std::cout << "# latencies of " << n << " requests; compiles_per_s is the median of "
              << rates.size() << " windows; plan metrics over " << quality_jobs
              << " jobs of the first " << quality << " requests\n";
  } else {
    // Untraced replay of the traced requests: the tracing overhead.
    double untraced_s = 0.0, traced_s = 0.0;
    run.tracer = nullptr;
    const auto replay_start = Clock::now();
    for (std::size_t k = 0;
         k < run.completed.size() && since(replay_start) < args.seconds; ++k) {
      untraced_s +=
          run_request(run, run.w.requests[run.completed[k]], -1, run.w.workers).seconds;
      traced_s += run.latencies_s[k];
    }
    if (!args.trace_out.empty() && !tracer.write_chrome_trace(args.trace_out)) {
      std::cerr << "compile_bench: cannot write " << args.trace_out << "\n";
    }
    const std::map<std::string, double> self = tracer.self_seconds();
    const auto self_s = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const ReplayTotals& t = run.replay;
    const LibraryTotals& lib = run.library;
    const double jobs = std::max(1.0, t.jobs);
    const double parse_s = self_s("io.parse_graph");
    const double replayed = self_s("core.latency_tables") + self_s("hw.dse") +
                            self_s("core.liveness") + self_s("core.prefetch") +
                            self_s("core.interference") + self_s("core.splitting");
    const double efficiency =
        batch ? ratio(serial_round_s, run.w.workers * run.round0_wall_s) : 1.0;
    metrics = {
        {"hw.dse_s", self_s("hw.dse") / jobs, "s"},
        {"hw.dse_calls", lib.dse_calls / jobs, "count"},
        {"hw.dse_share", ratio(lib.dse_s, lib.busy_s), "ratio"},
        {"core.dnnk_s", t.dnnk_s / jobs, "s"},
        {"core.dnnk_calls", t.dnnk_calls / jobs, "count"},
        {"core.dnnk_dp_cells", t.dp_cells / jobs, "count"},
        {"core.interference_s", self_s("core.interference") / jobs, "s"},
        {"core.interference_pairs_checked", t.pairs / jobs, "count"},
        {"core.interference_edges", t.edges / jobs, "count"},
        {"core.coloring_s", t.coloring_s / jobs, "s"},
        {"core.coloring_candidates_tried", t.candidates / jobs, "count"},
        {"core.coloring_calls", t.coloring_calls / jobs, "count"},
        {"core.splitting_s", t.splitting_self_s / jobs, "s"},
        {"core.splitting_splits_performed", t.splits / jobs, "count"},
        {"core.liveness_s", self_s("core.liveness") / jobs, "s"},
        {"core.prefetch_s", self_s("core.prefetch") / jobs, "s"},
        {"core.prefetch_hidden_ratio", ratio(t.prefetch_hidden, t.prefetch_edges), "ratio"},
        {"core.dnnk_selected_ratio", ratio(t.selected, t.buffers), "ratio"},
        {"core.place_promoted_weights", run.promoted / jobs, "count"},
        {"io.parse_s", parse_s / jobs, "s"},
        {"io.parse_mb_per_s", ratio(run.parse_bytes / 1e6, parse_s), "MB/s"},
        {"sim.refine_s", lib.refine_s / jobs, "s"},
        {"sim.refine_rounds", lib.refine_rounds / jobs, "count"},
        {"sim.demoted_weights", lib.demoted_weights / jobs, "count"},
        {"sim.lcmm_slower_ratio", ratio(run.sim_slower, run.verified), "ratio"},
        {"par.parallel_efficiency", efficiency, "ratio"},
        {"driver.attempts_per_job", run.attempts / jobs, "count"},
        {"resil.degraded_ratio", run.degraded / jobs, "ratio"},
        {"check.errors", run.check_errors, "count"},
        {"fail_ratio", fail_ratio, "ratio"},
        {"workload.repeat_share", input.repeat_share, "ratio"},
        {"workload.graph_repeat_share", input.graph_repeat_share, "ratio"},
        {"workload.layers_p50", input.layers_p50, "count"},
        {"workload.layers_max", input.layers_max, "count"},
        {"trace.replay_coverage", ratio(replayed, lib.busy_s), "ratio"},
        {"trace.overhead_ratio", ratio(traced_s, untraced_s) - 1.0, "ratio"},
    };
  }

  std::cerr << "compile_bench: " << run.w.name << " seed " << run.w.seed << ": "
            << run.latencies_s.size() << " requests, " << run.jobs_done
            << " jobs in " << format(run.measured_s) << " s measured; "
            << run.failed << "/" << run.attempted << " failed\n";
  std::ostringstream json;
  json << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << format(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

int usage(const std::string& message) {
  std::cerr << "compile_bench: " << message
            << "\nusage: compile_bench --workload <zoo_zipf|sweep_batch>"
               " [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]\n";
  return 2;
}

}  // namespace
}  // namespace compilebench

int main(int argc, char** argv) {
  using namespace compilebench;
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "compile_bench: " << e.what() << "\n";
    return 1;
  }
}
