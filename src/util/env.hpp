#pragma once
// The one reader of the SRUMMA_* environment.  A value that is set but
// malformed throws an Error naming the variable instead of falling back to
// a default.  Numbers are base 10 and must lie in the knob's range (reals
// may use scientific notation, e.g. 5e6); switches are "0" or "1"; paths
// and names are taken verbatim.  Unset and empty both mean "not set".

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "util/error.hpp"

namespace srumma {

/// Value of the environment variable `name`; nullopt when it is unset or
/// empty.
[[nodiscard]] inline std::optional<std::string> env_str(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return std::nullopt;
  return std::string(s);
}

/// Numeric value of `name` (T an integer type or double); nullopt when it
/// is unset or empty.  Throws Error naming the variable and [lo, hi] when
/// the value does not parse as a whole T inside that range.
template <class T>
[[nodiscard]] std::optional<T> env_number(const char* name, T lo, T hi) {
  const std::optional<std::string> s = env_str(name);
  if (!s) return std::nullopt;
  const char* end = s->data() + s->size();
  T v{};
  const auto [ptr, ec] = std::from_chars(s->data(), end, v);
  if (ec == std::errc{} && ptr == end && v >= lo && v <= hi) return v;
  std::ostringstream msg;
  msg << name
      << (std::is_integral_v<T> ? " must be an integer in ["
                                : " must be a number in [")
      << lo << ", " << hi << "], got '" << *s << "'";
  SRUMMA_REQUIRE(false, msg.str());
  return std::nullopt;
}

/// env_number into `out`, left untouched when `name` is unset or empty.
/// Returns whether it was set.
template <class T>
bool env_read(const char* name, T& out, std::type_identity_t<T> lo,
              std::type_identity_t<T> hi) {
  const std::optional<T> v = env_number(name, lo, hi);
  if (v) out = *v;
  return v.has_value();
}

/// env_number for the 64-bit integer knobs.
[[nodiscard]] inline std::optional<std::int64_t> env_int(const char* name,
                                                         std::int64_t lo,
                                                         std::int64_t hi) {
  return env_number<std::int64_t>(name, lo, hi);
}

/// On/off switch `name`: `unset` when it is unset, false for "" or "0",
/// true for "1"; any other value throws Error naming the variable.
[[nodiscard]] inline bool env_flag(const char* name, bool unset = false) {
  const char* s = std::getenv(name);
  if (s == nullptr) return unset;
  const std::string v(s);
  SRUMMA_REQUIRE(v.empty() || v == "0" || v == "1",
                 std::string(name) + " must be 0 or 1, got '" + v + "'");
  return v == "1";
}

}  // namespace srumma
