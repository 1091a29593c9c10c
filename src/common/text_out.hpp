// Number formatting for the line-oriented text images (checkpoints, saved
// experience) without iostreams.
//
// The images were first written through std::ostream at setprecision(17);
// their bytes are part of the model (the ledger charges them, adoption ships
// them), so these appenders print exactly what that stream printed: decimal
// integers, and doubles as printf("%.17g") — std::to_chars with
// chars_format::general at precision 17 is specified to match it.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <type_traits>

namespace pgrid::common {

/// Appends an integer in decimal (what `ostream << v` prints).
template <typename Int>
void append_int(std::string& out, Int v) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

/// Appends a double as printf("%.17g"): enough digits to round-trip, the
/// same bytes an ostream writes at setprecision(17) in the default format.
inline void append_double17(std::string& out, double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

/// Appends `v` as 16 lowercase hex digits, zero-padded.
inline void append_hex16(std::string& out, std::uint64_t v) {
  char buf[16];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v, 16);
  out.append(16 - static_cast<std::size_t>(result.ptr - buf), '0');
  out.append(buf, result.ptr);
}

}  // namespace pgrid::common
