// Typed error taxonomy and degradation vocabulary (lcmm::resil).
//
// Every failure the compiler can raise carries a stable LCMM-Exxx code (the
// same namespace as lcmm::check diagnostics, continued in the E6xx+ blocks),
// the failing pass or site, and optional entity context. Two exception
// branches partition the taxonomy:
//
//   CompileError : std::runtime_error     runtime/resource failures.
//     LcmmCompiler::compile ships the UMM floor instead; in --strict mode
//     it propagates.
//   OptionError : std::invalid_argument   caller contract violations (bad
//     options, mismatched arguments). Never swallowed by compile(), and
//     type-compatible with the std::invalid_argument the seed code threw.
//
// Both expose the shared ErrorInfo payload through the TypedError mixin, so
// the batch driver can report (code, pass, entity) uniformly via describe().
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace lcmm::resil {

/// Stable diagnostic codes. lcmm::check owns E0xx-E5xx (plan verification);
/// resil continues the numbering: E6xx feasibility/resource, E65x caller
/// contract, E7xx input, E8xx infrastructure. Values are part of the tool
/// output contract — never renumber or reuse a retired value, only append.
enum class Code : std::uint16_t {
  kNone = 0,

  // E61x — feasibility and resource exhaustion (the UMM floor may recover).
  kNoFeasibleDesign = 611,    ///< no DSE candidate fits, or none has a finite latency
  kTileBuffersDontFit = 612,  ///< tile buffers exceed on-chip BRAM
  kGraphTooLarge = 613,       ///< input exceeds a pass's structural bound
  kSizeOverflow = 614,        ///< size arithmetic overflowed int64
  // 615 is retired and must not be reused (docs/robustness.md).

  // E65x — caller contract violations (OptionError).
  kBadOptions = 651,          ///< constructor options fail validation
  kBadArgument = 652,         ///< mismatched or out-of-domain argument

  // E7xx — input / io.
  kParseError = 701,          ///< text-format input rejected
  kIoError = 702,             ///< file system failure reading input

  // E8xx — infrastructure.
  kFaultInjected = 801,       ///< deterministic fault-injection hit (LCMM_FAULT)
  // 802 is retired and must not be reused (docs/robustness.md).
  kInternal = 899,            ///< invariant violation / unexpected exception
};

/// "LCMM-E612" — the stable identifier used in logs, SARIF and batch output.
std::string code_id(Code code);
/// Short kebab-case name ("tile-buffers-dont-fit").
const char* code_name(Code code);
/// One-line human summary of the code.
const char* code_summary(Code code);
/// Every code resil can raise, in numeric order (for docs/tests).
const std::vector<Code>& all_codes();

/// The structured payload every typed error carries.
struct ErrorInfo {
  Code code = Code::kNone;
  std::string pass;     ///< failing pass or fault site ("pass.place", "dse.explore")
  std::string entity;   ///< entity context (graph, layer or buffer name); may be empty
  std::string message;  ///< human-readable detail, without the [code] prefix
};

/// "[LCMM-E612] pass.place: tile buffers do not fit (entity 'resnet50')".
std::string format_what(const ErrorInfo& info);

/// Mixin carrying the typed payload; both exception branches implement it
/// so `dynamic_cast<const TypedError*>` recovers the info from a caught
/// std::exception without caring which branch it is.
class TypedError {
 public:
  TypedError(const TypedError&) = default;
  TypedError& operator=(const TypedError&) = default;
  virtual ~TypedError();

  const ErrorInfo& info() const { return info_; }
  Code code() const { return info_.code; }
  const std::string& pass() const { return info_.pass; }
  const std::string& entity() const { return info_.entity; }

 protected:
  explicit TypedError(ErrorInfo info) : info_(std::move(info)) {}

 private:
  ErrorInfo info_;
};

/// Runtime compile failure: resource exhaustion, infeasibility, overflow,
/// injected faults. compile() ships the UMM floor instead.
class CompileError : public std::runtime_error, public TypedError {
 public:
  CompileError(Code code, std::string pass, std::string message,
               std::string entity = {});
  explicit CompileError(ErrorInfo info);
};

/// Caller contract violation. Is-a std::invalid_argument, so pre-resil
/// call sites and tests that expect that type keep working.
class OptionError : public std::invalid_argument, public TypedError {
 public:
  OptionError(Code code, std::string pass, std::string message,
              std::string entity = {});
};

/// Typed payload of any exception: the real info for TypedError subclasses,
/// a kInternal wrapper around e.what() for everything else.
ErrorInfo describe(const std::exception& e);

/// Where a compile's plan landed (docs/robustness.md). A failed pipeline
/// ships the kUmm floor, the semantically valid plan below which nothing
/// degrades. Values 1-3 are retired and must not be reused.
enum class Rung : std::uint8_t {
  kFullLcmm = 0,  ///< the full Fig. 4 pipeline
  kUmm = 4,       ///< plain uniform-memory-management baseline
};

/// "full-lcmm", "umm".
const char* rung_name(Rung rung);

}  // namespace lcmm::resil
