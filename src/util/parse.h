#ifndef CLFTJ_UTIL_PARSE_H_
#define CLFTJ_UTIL_PARSE_H_

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace clftj {

/// The one parser for numbers that come from outside the program: wire
/// tokens, the CLFTJ_FAULTS variable and command-line flags. Parses all of
/// `text` as one base-10 value of T (an integer type or double) into *out.
/// Returns false, leaving *out untouched, when the text is empty, has any
/// character std::from_chars does not consume (whitespace, a '+' sign, a
/// trailing unit), carries a '-' sign for an unsigned T, or names a value
/// outside T's range. (strtoull, by contrast, wraps "-1" to 2^64-1 and
/// clamps an overlong value to it.)
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>,
                "ParseNumber takes an integer type or double");
  const char* const end = text.data() + text.size();
  T value{};
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace clftj

#endif  // CLFTJ_UTIL_PARSE_H_
