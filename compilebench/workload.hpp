// Seeded compile-request workloads for the end-to-end compile benchmark.
//
// A request is what a caller hands the compiler: serialized `.lcmm` graph
// text plus device, precision and LcmmOptions. Request i of a workload is a
// pure function of (workload, seed, i), so a run can extend its request list
// lazily and two runs with one seed replay byte-identical inputs. The
// library under test only ever sees the generated requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/device.hpp"
#include "hw/precision.hpp"

namespace compilebench {

/// One compile job: a graph (by index into Workload::graph_texts) on one
/// device, precision and SRAM budget.
struct Job {
  std::size_t graph = 0;
  std::string device;  ///< "vu9p" | "zu9eg" | "u250"
  lcmm::hw::Precision precision = lcmm::hw::Precision::kInt16;
  double sram_capacity_fraction = 0.90;

  /// Identity of the whole job: equal keys compile to identical plans.
  std::string key() const;
};

/// One closed-loop request: a single job, or a whole batch on sweep_batch.
struct Request {
  std::vector<Job> jobs;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  /// Serialized graphs and their layer counts, shared by the jobs.
  std::vector<std::string> graph_texts;
  std::vector<std::size_t> graph_layers;
  std::vector<Request> requests;
  /// Worker threads per request: DSE candidates and, on batches, jobs.
  int workers = 1;
};

/// Names accepted by make_workload(), in benchmark order.
const std::vector<std::string>& workload_names();

/// Builds `name` for `seed` with its first `initial` requests (throws
/// std::invalid_argument for an unknown name).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t initial);

/// Worker threads of workload `name`: min(2, nproc) on sweep_batch, else 1.
int workers_for(const std::string& name);

/// Appends requests until `w.requests.size() >= count`.
void extend_workload(Workload& w, std::size_t count);

lcmm::hw::FpgaDevice device_by_name(const std::string& name);

/// Canonical text of the first `count` requests (graph text included), for
/// the determinism test.
std::string dump_requests(Workload& w, std::size_t count);

/// Input descriptors over the first `count` requests (extends `w` if
/// needed). Shares are taken over jobs: a job repeats when an earlier job had
/// the same key, its graph repeats when an earlier job had the same text.
struct Descriptors {
  double repeat_share = 0.0;
  double graph_repeat_share = 0.0;
  double layers_p50 = 0.0;
  double layers_max = 0.0;
};
Descriptors describe(const Workload& w, std::size_t count);

}  // namespace compilebench
