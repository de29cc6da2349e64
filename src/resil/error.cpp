#include "resil/error.hpp"

namespace lcmm::resil {

std::string code_id(Code code) {
  std::string id = "LCMM-E";
  const int value = static_cast<int>(code);
  if (value < 100) id += '0';
  if (value < 10) id += '0';
  id += std::to_string(value);
  return id;
}

const char* code_name(Code code) {
  switch (code) {
    case Code::kNone: return "none";
    case Code::kNoFeasibleDesign: return "no-feasible-design";
    case Code::kTileBuffersDontFit: return "tile-buffers-dont-fit";
    case Code::kGraphTooLarge: return "graph-too-large";
    case Code::kSizeOverflow: return "size-overflow";
    case Code::kBadOptions: return "bad-options";
    case Code::kBadArgument: return "bad-argument";
    case Code::kParseError: return "parse-error";
    case Code::kIoError: return "io-error";
    case Code::kFaultInjected: return "fault-injected";
    case Code::kInternal: return "internal";
  }
  return "unknown";
}

const char* code_summary(Code code) {
  switch (code) {
    case Code::kNone: return "no error";
    case Code::kNoFeasibleDesign:
      return "DSE found no array/tile candidate within the device budget";
    case Code::kTileBuffersDontFit:
      return "the design's tile buffers exceed the on-chip BRAM pool";
    case Code::kGraphTooLarge:
      return "the input exceeds a pass's structural bound";
    case Code::kSizeOverflow:
      return "tensor or buffer size arithmetic overflowed int64";
    case Code::kBadOptions: return "constructor options failed validation";
    case Code::kBadArgument: return "mismatched or out-of-domain argument";
    case Code::kParseError: return "text-format input was rejected";
    case Code::kIoError: return "file system failure reading input";
    case Code::kFaultInjected:
      return "deterministic fault injected via LCMM_FAULT or fault::arm";
    case Code::kInternal: return "invariant violation or unexpected exception";
  }
  return "unknown";
}

const std::vector<Code>& all_codes() {
  static const std::vector<Code> codes = {
      Code::kNoFeasibleDesign, Code::kTileBuffersDontFit,
      Code::kGraphTooLarge,    Code::kSizeOverflow,
      Code::kBadOptions,       Code::kBadArgument,
      Code::kParseError,       Code::kIoError,
      Code::kFaultInjected,    Code::kInternal,
  };
  return codes;
}

std::string format_what(const ErrorInfo& info) {
  std::string out = "[" + code_id(info.code) + "] ";
  if (!info.pass.empty()) {
    out += info.pass;
    out += ": ";
  }
  out += info.message;
  if (!info.entity.empty()) {
    out += " (entity '" + info.entity + "')";
  }
  return out;
}

TypedError::~TypedError() = default;

CompileError::CompileError(Code code, std::string pass, std::string message,
                           std::string entity)
    : CompileError(ErrorInfo{code, std::move(pass), std::move(entity),
                             std::move(message)}) {}

CompileError::CompileError(ErrorInfo info)
    : std::runtime_error(format_what(info)), TypedError(std::move(info)) {}

OptionError::OptionError(Code code, std::string pass, std::string message,
                         std::string entity)
    : std::invalid_argument(format_what(
          ErrorInfo{code, pass, entity, message})),
      TypedError(ErrorInfo{code, std::move(pass), std::move(entity),
                           std::move(message)}) {}

ErrorInfo describe(const std::exception& e) {
  if (const auto* typed = dynamic_cast<const TypedError*>(&e)) {
    return typed->info();
  }
  ErrorInfo info;
  info.code = Code::kInternal;
  info.message = e.what();
  return info;
}

const char* rung_name(Rung rung) {
  switch (rung) {
    case Rung::kFullLcmm: return "full-lcmm";
    case Rung::kUmm: return "umm";
  }
  return "unknown";
}

}  // namespace lcmm::resil
