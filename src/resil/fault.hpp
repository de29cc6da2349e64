// Deterministic fault injection (lcmm::resil::fault).
//
// A single armed Config names one site; fault::hit(site) at that site
// throws CompileError(kFaultInjected) on a deterministic subset of hits.
// Hit counting is scoped per top-level operation (one compile, one parse),
// not global: Scope installs a fresh thread-local counter unless one is
// already active. An operation runs on one thread, so with the default
// one-shot config exactly one hit fires per operation whichever
// compile_many worker runs it — which is what makes batch outcomes
// identical for every worker count.
//
// Arming: programmatically via arm()/ArmedGuard (tests), or from the
// LCMM_FAULT environment variable (CI):
//
//   LCMM_FAULT=site            fire the 1st hit of `site`, once
//   LCMM_FAULT=site:3          fire the 3rd hit, once
//   LCMM_FAULT=site:1:*        sticky: fire every hit from the 1st on
//
// Any other third field is malformed. A fault on a compile-path site fails
// the LCMM pipeline, and the compile ships the UMM floor. The floor shares
// the compile's budget, so a one-shot fault leaves the floor equal to a
// fault-free baseline. Sticky faults on sites the UMM path shares
// (dse.explore, pass.place) defeat the floor too, by design.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace lcmm::resil::fault {

/// Registered injection sites (pass boundaries, DSE, the io parser).
std::span<const char* const> sites();
bool is_site(std::string_view name);

struct Config {
  std::string site;
  std::int64_t nth = 1;  ///< First matching hit that fires (1-based).
  bool sticky = false;   ///< Every hit from nth on fires, not just the nth.
};

/// Arm `config` process-wide (throws OptionError on an unknown site).
void arm(Config config);
void disarm();
std::optional<Config> armed();
/// Parse LCMM_FAULT ("site[:nth[:*]]", '*' = sticky). Malformed
/// or unknown values log a warning and leave the registry disarmed.
/// Idempotent per process; Scope calls it lazily so tools need no wiring.
void arm_from_env();

/// Top-level operation scope: installs a fresh counter unless one is
/// already active (nested scopes share the outer counter, so one compile
/// has exactly one fault budget regardless of internal structure).
class Scope {
 public:
  Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope();

 private:
  std::int64_t hits_ = 0;
  bool installed_ = false;
};

/// Injection point. No-op unless a config is armed, a Scope is active and
/// `site` matches; otherwise counts the hit and throws
/// CompileError(kFaultInjected) when the count lands in the firing window.
void hit(const char* site);

/// RAII arm/disarm for tests.
class ArmedGuard {
 public:
  explicit ArmedGuard(Config config);
  ArmedGuard(const ArmedGuard&) = delete;
  ArmedGuard& operator=(const ArmedGuard&) = delete;
  ~ArmedGuard();
};

}  // namespace lcmm::resil::fault
