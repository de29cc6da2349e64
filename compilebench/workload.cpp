#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string_view>

#include "io/text_format.hpp"
#include "models/models.hpp"
#include "par/jobs.hpp"
#include "util/rng.hpp"

namespace compilebench {

namespace {

using lcmm::hw::Precision;

constexpr Precision kPrecisions[] = {Precision::kInt8, Precision::kInt16,
                                     Precision::kFp32};
/// Fractional part of the golden ratio: i * kGolden mod 1 spreads any prefix
/// of a request stream evenly over [0, 1), so a short run still sees the
/// whole SRAM-budget range and two seeds see the same mix.
constexpr double kGolden = 0.6180339887498949;
/// Fixes which zoo configuration is most popular. It is not the workload
/// seed: seeds change the request stream, not the popularity ranking, so
/// every seed measures the same traffic mix.
constexpr std::uint64_t kZipfRankSeed = 0x2019dacULL;
constexpr double kZipfExponent = 1.0;

/// splitmix64 finalizer: request i's private seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double stratified(std::uint64_t seed, std::size_t i) {
  const double offset = lcmm::util::Rng(mix(seed, ~0ULL)).next_double();
  const double x = offset + kGolden * static_cast<double>(i);
  return x - std::floor(x);
}

void add_graph(Workload& w, const lcmm::graph::ComputationGraph& g) {
  w.graph_texts.push_back(lcmm::io::serialize_graph(g));
  w.graph_layers.push_back(g.num_layers());
}

void add_zoo_graphs(Workload& w) {
  for (const std::string& model : lcmm::models::model_names()) {
    add_graph(w, lcmm::models::build_by_name(model));
  }
}

/// zoo_zipf: every model x {int8, int16, fp32} x {vu9p, u250}, ranked by a
/// fixed permutation and drawn with Zipf(1) popularity.
struct ZooConfigs {
  std::vector<Job> configs;  // in popularity order
  std::vector<double> cumulative;

  ZooConfigs() {
    const std::size_t models = lcmm::models::model_names().size();
    for (std::size_t m = 0; m < models; ++m) {
      for (Precision p : kPrecisions) {
        for (const char* device : {"vu9p", "u250"}) {
          configs.push_back(Job{m, device, p, 0.90});
        }
      }
    }
    lcmm::util::Rng rng(kZipfRankSeed);
    for (std::size_t i = configs.size(); i > 1; --i) {
      std::swap(configs[i - 1], configs[rng.next_below(i)]);
    }
    double total = 0.0;
    for (std::size_t r = 0; r < configs.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cumulative.push_back(total);
    }
  }

  const Job& draw(double u) const {
    const double x = u * cumulative.back();
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
    const auto r = std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative.begin()), configs.size() - 1);
    return configs[r];
  }
};

const ZooConfigs& zoo_configs() {
  static const ZooConfigs configs;
  return configs;
}

Request zoo_request(const Workload& w, std::size_t i) {
  const double u = lcmm::util::Rng(mix(w.seed, i)).next_double();
  return Request{{zoo_configs().draw(u)}};
}

/// sweep_batch: the evaluation sweep (every model x 3 precisions x
/// {vu9p, zu9eg, u250} = 99 jobs) as one batch, under a per-round SRAM
/// budget fraction in [0.50, 0.95).
Request sweep_request(const Workload& w, std::size_t i) {
  const double fraction = 0.50 + 0.45 * stratified(w.seed, i);
  Request r;
  for (std::size_t m = 0; m < w.graph_texts.size(); ++m) {
    for (Precision p : kPrecisions) {
      for (const char* device : {"vu9p", "zu9eg", "u250"}) {
        r.jobs.push_back(Job{m, device, p, fraction});
      }
    }
  }
  return r;
}

}  // namespace

std::string Job::key() const {
  char fraction[32];
  std::snprintf(fraction, sizeof fraction, "%.17g", sram_capacity_fraction);
  return std::to_string(graph) + "/" + device + "/" +
         lcmm::hw::to_string(precision) + "/" + fraction;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"zoo_zipf", "sweep_batch"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t initial) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name != "zoo_zipf" && name != "sweep_batch") {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  add_zoo_graphs(w);
  w.workers = workers_for(name);
  extend_workload(w, initial);
  return w;
}

int workers_for(const std::string& name) {
  // Few threads: on a shared host, work fanned out over every vCPU waits for
  // whichever core another tenant holds, and the run measures the scheduler.
  return name == "sweep_batch" ? std::min(2, lcmm::par::hardware_jobs()) : 1;
}

void extend_workload(Workload& w, std::size_t count) {
  while (w.requests.size() < count) {
    const std::size_t i = w.requests.size();
    if (w.name == "zoo_zipf") {
      w.requests.push_back(zoo_request(w, i));
    } else {
      w.requests.push_back(sweep_request(w, i));
    }
  }
}

lcmm::hw::FpgaDevice device_by_name(const std::string& name) {
  if (name == "vu9p") return lcmm::hw::FpgaDevice::vu9p();
  if (name == "zu9eg") return lcmm::hw::FpgaDevice::zu9eg();
  if (name == "u250") return lcmm::hw::FpgaDevice::u250();
  throw std::invalid_argument("unknown device '" + name + "'");
}

std::string dump_requests(Workload& w, std::size_t count) {
  extend_workload(w, count);
  std::string out = "workload " + w.name + " seed " + std::to_string(w.seed) + "\n";
  std::set<std::size_t> graphs;
  for (std::size_t i = 0; i < count; ++i) {
    out += "request " + std::to_string(i) + "\n";
    for (const Job& job : w.requests[i].jobs) {
      out += "  job " + job.key() + "\n";
      graphs.insert(job.graph);
    }
  }
  for (std::size_t g : graphs) {
    out += "graph " + std::to_string(g) + "\n" + w.graph_texts[g];
  }
  return out;
}

Descriptors describe(const Workload& w, std::size_t count) {
  count = std::min(count, w.requests.size());
  std::set<std::string> keys;
  std::set<std::string_view> texts;
  std::vector<double> layers;
  double jobs = 0.0;
  double repeats = 0.0;
  double graph_repeats = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    for (const Job& job : w.requests[i].jobs) {
      jobs += 1.0;
      repeats += keys.insert(job.key()).second ? 0.0 : 1.0;
      graph_repeats += texts.insert(w.graph_texts[job.graph]).second ? 0.0 : 1.0;
      layers.push_back(static_cast<double>(w.graph_layers[job.graph]));
    }
  }
  Descriptors d;
  if (layers.empty()) return d;
  std::sort(layers.begin(), layers.end());
  d.repeat_share = repeats / jobs;
  d.graph_repeat_share = graph_repeats / jobs;
  d.layers_p50 = layers[(layers.size() - 1) / 2];
  d.layers_max = layers.back();
  return d;
}

}  // namespace compilebench
