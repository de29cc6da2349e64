// Request generation is a pure function of (workload, seed): one seed gives
// a byte-identical request list, another seed a different one. Also records
// the workload.* input descriptors each workload is meant to have.
#include <cstdio>
#include <string>

#include "workload.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

}  // namespace

int main() {
  using compilebench::make_workload;
  struct Case {
    const char* name;
    std::size_t requests;  // prefix the descriptors are taken over
  };
  for (const Case& c : {Case{"zoo_zipf", 256}, Case{"sweep_batch", 8}}) {
    const std::string name = c.name;
    compilebench::Workload a = make_workload(name, 1, 0);
    compilebench::Workload b = make_workload(name, 1, 0);
    compilebench::Workload other = make_workload(name, 2, 0);
    const std::string dump_a = compilebench::dump_requests(a, c.requests);
    expect(dump_a == compilebench::dump_requests(b, c.requests),
           name + ": same seed must give byte-identical requests");
    expect(dump_a != compilebench::dump_requests(other, c.requests),
           name + ": another seed must give different requests");

    const compilebench::Descriptors d = compilebench::describe(a, c.requests);
    std::printf("%-12s requests=%zu repeat_share=%.3f graph_repeat_share=%.3f "
                "layers_p50=%.0f layers_max=%.0f\n",
                c.name, c.requests, d.repeat_share, d.graph_repeat_share,
                d.layers_p50, d.layers_max);
    if (name == "zoo_zipf") {
      expect(d.repeat_share > 0.5, name + ": repeat-heavy stream");
    } else {
      expect(d.repeat_share == 0, name + ": no whole job repeats");
      expect(d.graph_repeat_share > 0.5, name + ": graphs repeat across jobs");
    }
  }
  std::printf(failures ? "%d failure(s)\n" : "all passed\n", failures);
  return failures ? 1 : 0;
}
