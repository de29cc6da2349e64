// Lightweight leveled logging for the LCMM library.
//
// The logger is thread-safe: the threshold is atomic and each emitted line
// is serialized under a mutex, so lines from lcmm::par workers never
// interleave mid-line (their *order* across threads is scheduling-
// dependent, which is why determinism-sensitive output goes through
// obs::CompileStats instead — see docs/parallelism.md). Output goes to
// stderr; benches and examples print their results to stdout so the two
// streams never mix in redirected runs.
//
// The initial threshold comes from the LCMM_LOG_LEVEL environment variable
// (debug|info|warn|error|off; default warn); set_log_level overrides it.
// Every line is prefixed with seconds elapsed since the first log call:
//
//   [    1.042s] [INFO] LCMM(googlenet): 4.1 ms (UMM est) -> 2.3 ms ...
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace lcmm::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold. Messages below this level are discarded.
/// Initialized from LCMM_LOG_LEVEL when the env var is set.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Whether a message at `level` passes the threshold. LCMM_LOG checks it
/// before formatting anything, so a filtered message costs one atomic load.
bool log_enabled(LogLevel level);

/// Emits one formatted line ("[level] message") to stderr if enabled.
void log_line(LogLevel level, std::string_view message);

namespace detail {

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage() { log_line(level_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Makes `Voidify() & message` a void expression, so that LCMM_LOG can be
/// the false branch of a conditional.
struct Voidify {
  void operator&(const LogMessage&) const {}
};

}  // namespace detail

}  // namespace lcmm::util

#define LCMM_LOG(level)                      \
  !::lcmm::util::log_enabled(level)          \
      ? (void)0                              \
      : ::lcmm::util::detail::Voidify() &    \
            ::lcmm::util::detail::LogMessage(level)
#define LCMM_DEBUG() LCMM_LOG(::lcmm::util::LogLevel::kDebug)
#define LCMM_INFO() LCMM_LOG(::lcmm::util::LogLevel::kInfo)
#define LCMM_WARN() LCMM_LOG(::lcmm::util::LogLevel::kWarn)
#define LCMM_ERROR() LCMM_LOG(::lcmm::util::LogLevel::kError)
