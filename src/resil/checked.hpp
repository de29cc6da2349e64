// Overflow-checked int64 size arithmetic. Tensor element counts, byte sizes
// and virtual-buffer totals are all products/sums of parser-controlled
// dimensions; silent wraparound would turn an adversarial graph into a
// bogus "everything fits on chip" plan. These helpers raise a typed
// CompileError(kSizeOverflow) instead, which compile()'s UMM floor (or the
// parser's ParseError wrapper) surfaces cleanly.
#pragma once

#include <cstdint>

#include "resil/error.hpp"

namespace lcmm::resil {

/// a * b, or CompileError(kSizeOverflow) naming `what` on int64 overflow.
inline std::int64_t checked_mul(std::int64_t a, std::int64_t b,
                                const char* what) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    throw CompileError(Code::kSizeOverflow, "size-arith",
                       std::string(what) + ": int64 overflow in " +
                           std::to_string(a) + " * " + std::to_string(b));
  }
  return out;
}

/// a + b, or CompileError(kSizeOverflow) naming `what` on int64 overflow.
inline std::int64_t checked_add(std::int64_t a, std::int64_t b,
                                const char* what) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    throw CompileError(Code::kSizeOverflow, "size-arith",
                       std::string(what) + ": int64 overflow in " +
                           std::to_string(a) + " + " + std::to_string(b));
  }
  return out;
}

}  // namespace lcmm::resil
