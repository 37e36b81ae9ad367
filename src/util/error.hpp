#pragma once

#include <stdexcept>
#include <string>

namespace qufi {

/// Base exception for all qufi validation and usage errors.
///
/// Thrown on programmer errors (bad qubit index, malformed QASM, non-CPTP
/// channel, ...). Hot simulation paths never throw; validation happens at
/// construction / configuration boundaries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws qufi::Error with `message` when `condition` is false.
///
/// `require` runs on hot paths (per-element accessors, per-gate kernels,
/// per-config noise lookups), so it takes only a string literal: a passing
/// check must cost one branch and never build a std::string. A message that
/// needs run-time data is written as an explicit
/// `if (!cond) throw Error(...)`, so the string is built only on failure.
inline void require(bool condition, const char* message) {
  if (!condition) throw Error(message);
}

}  // namespace qufi
