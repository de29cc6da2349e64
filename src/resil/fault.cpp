#include "resil/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "resil/error.hpp"
#include "util/logging.hpp"

namespace lcmm::resil::fault {

namespace {

constexpr const char* kSites[] = {
    "io.parse",       // text_format parse_graph entry
    "dse.explore",    // Dse::space table build; Dse::explore objective path
    "pass.liveness",  // feature-entity construction (§3.1 liveness)
    "pass.coloring",  // interference coloring (§3.1)
    "pass.prefetch",  // weight prefetch schedule (§3.2)
    "pass.dnnk",      // knapsack allocation (§3.3)
    "pass.splitting", // buffer splitting (§3.4)
    "pass.place",     // physical BRAM/URAM placement
};

// The armed config is read on every hit() from arbitrary threads while
// tests arm/disarm between operations, so hit() takes no lock: a config is
// immutable once published and stays owned by the registry until exit,
// which keeps it valid for a hit() that loaded it just before a re-arm.
// The registry holds one config per arm() call, a handful per process.
std::atomic<const Config*> g_armed{nullptr};

const Config* publish(Config config) {
  static std::mutex mutex;
  // A deque never moves its elements when it grows at the back.
  static std::deque<Config> published;
  const std::lock_guard<std::mutex> lock(mutex);
  return &published.emplace_back(std::move(config));
}

/// The hit counter of the operation running on this thread, or nullptr
/// outside any Scope.
thread_local std::int64_t* tl_hits = nullptr;

}  // namespace

std::span<const char* const> sites() { return kSites; }

bool is_site(std::string_view name) {
  for (const char* site : kSites) {
    if (name == site) return true;
  }
  return false;
}

void arm(Config config) {
  if (!is_site(config.site)) {
    throw OptionError(Code::kBadArgument, "fault.arm",
                      "unknown fault site '" + config.site + "'");
  }
  if (config.nth < 1) config.nth = 1;
  g_armed.store(publish(std::move(config)), std::memory_order_release);
}

void disarm() { g_armed.store(nullptr, std::memory_order_release); }

std::optional<Config> armed() {
  const Config* config = g_armed.load(std::memory_order_acquire);
  if (config == nullptr) return std::nullopt;
  return *config;
}

void arm_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("LCMM_FAULT");
    if (env == nullptr || *env == '\0') return;
    Config config;
    std::string spec(env);
    std::size_t colon = spec.find(':');
    config.site = spec.substr(0, colon);
    if (!is_site(config.site)) {
      LCMM_WARN() << "LCMM_FAULT: unknown site '" << config.site
                  << "'; fault injection disarmed";
      return;
    }
    try {
      if (colon != std::string::npos) {
        std::string rest = spec.substr(colon + 1);
        colon = rest.find(':');
        config.nth = std::stoll(rest.substr(0, colon));
        if (colon != std::string::npos) {
          if (rest.substr(colon + 1) != "*") throw std::invalid_argument(spec);
          config.sticky = true;
        }
      }
    } catch (const std::exception&) {
      LCMM_WARN() << "LCMM_FAULT: malformed spec '" << spec
                  << "'; fault injection disarmed";
      return;
    }
    LCMM_INFO() << "LCMM_FAULT: arming site '" << config.site << "' nth="
                << config.nth << (config.sticky ? " sticky" : " once");
    arm(std::move(config));
  });
}

Scope::Scope() {
  arm_from_env();
  if (tl_hits == nullptr) {
    tl_hits = &hits_;
    installed_ = true;
  }
}

Scope::~Scope() {
  if (installed_) tl_hits = nullptr;
}

void hit(const char* site) {
  const Config* config = g_armed.load(std::memory_order_acquire);
  if (config == nullptr) return;
  if (tl_hits == nullptr) return;
  if (config->site != site) return;
  const std::int64_t n = ++*tl_hits;
  if (n < config->nth || (n > config->nth && !config->sticky)) return;
  // The message names no hit index, so every firing hit of a site reads
  // the same.
  throw CompileError(Code::kFaultInjected, site,
                     "deterministic fault injected");
}

ArmedGuard::ArmedGuard(Config config) { arm(std::move(config)); }

ArmedGuard::~ArmedGuard() { disarm(); }

}  // namespace lcmm::resil::fault
