#pragma once
// Strict parsing of the numeric SRUMMA_* environment knobs: a value that
// is set must be a base-10 integer inside the knob's range, or the read
// fails loudly instead of quietly falling back to a default.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace srumma {

/// Value of the environment variable `name`; nullopt when it is unset or
/// empty.  Throws Error naming the variable and [lo, hi] when the value is
/// not an integer in that range.
[[nodiscard]] inline std::optional<std::int64_t> env_int(const char* name,
                                                         std::int64_t lo,
                                                         std::int64_t hi) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return std::nullopt;
  const char* end = s + std::strlen(s);
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s, end, v);
  SRUMMA_REQUIRE(ec == std::errc{} && ptr == end && v >= lo && v <= hi,
                 std::string(name) + " must be an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got '" + s + "'");
  return v;
}

}  // namespace srumma
