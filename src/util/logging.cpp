#include "util/logging.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace lcmm::util {

namespace {

/// Initial threshold: the LCMM_LOG_LEVEL environment variable when set and
/// recognized (debug|info|warn|error|off, case-insensitive), else kWarn.
LogLevel initial_level() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): runs once during static init,
  // before any lcmm::par worker can exist.
  const char* env = std::getenv("LCMM_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarn;
  std::string name;
  for (const char* p = env; *p != '\0'; ++p) {
    name += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  }
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off" || name == "none") return LogLevel::kOff;
  std::fprintf(stderr, "[WARN] LCMM_LOG_LEVEL='%s' not recognized "
                       "(debug|info|warn|error|off); using warn\n", env);
  return LogLevel::kWarn;
}

std::atomic<LogLevel> g_level = initial_level();

/// Serializes emitted lines so concurrent workers never interleave text.
std::mutex& log_mutex() {
  static std::mutex mutex;
  return mutex;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

/// Seconds since the first log call, so long compiles and sweeps can be
/// read as a timeline without external timestamps.
double elapsed_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

bool log_enabled(LogLevel level) {
  const LogLevel threshold = g_level.load(std::memory_order_relaxed);
  return level >= threshold && threshold != LogLevel::kOff;
}

void log_line(LogLevel level, std::string_view message) {
  if (!log_enabled(level)) return;
  const double now = elapsed_s();
  std::lock_guard<std::mutex> lock(log_mutex());
  std::fprintf(stderr, "[%9.3fs] [%s] %.*s\n", now, level_name(level),
               static_cast<int>(message.size()), message.data());
}

}  // namespace lcmm::util
