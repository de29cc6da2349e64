// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around each call it makes into the
// library (a span's parent is the innermost open span), kept in memory, and
// written once as a Chrome trace when the run ends. Self time is a span's
// duration minus the part covered by its child spans.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace compilebench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int request = -1;  ///< Spans of one request share this id.
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// Opens a span under the innermost open one; returns its id.
  int begin(std::string name, int request);
  void end(int id);

  /// Self time summed per span name.
  std::map<std::string, double> self_seconds() const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  double now_s() const;

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int request)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, request) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace compilebench
