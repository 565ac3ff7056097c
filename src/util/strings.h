// Small string utilities shared across incdb modules.

#ifndef INCDB_UTIL_STRINGS_H_
#define INCDB_UTIL_STRINGS_H_

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace incdb {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// ASCII lower-casing (SQL keywords are case-insensitive).
std::string ToLower(const std::string& s);
std::string ToUpper(const std::string& s);

/// True if `s` equals `t` ignoring ASCII case.
bool EqualsIgnoreCase(const std::string& s, const std::string& t);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char sep);

/// Strips leading/trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// Parses all of `s` as a base-10 integer of type `Int` (a leading '-' only
/// for signed types; no '+', no whitespace). Returns nullopt for any other
/// text and for a value `Int` cannot hold. Never throws, unlike std::stoll,
/// so each parser reports its own positioned ParseError instead.
template <typename Int>
std::optional<Int> ParseDecimal(std::string_view s) {
  Int v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace incdb

#endif  // INCDB_UTIL_STRINGS_H_
