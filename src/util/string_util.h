// Small string helpers shared across IO, CLI and table printing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ss {

// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

// Joins with a separator string.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

// Removes leading/trailing ASCII whitespace; trim_view returns a view
// into `s`.
std::string_view trim_view(std::string_view s);
std::string trim(std::string_view s);

// ASCII lowercasing.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

// printf-style formatting into std::string.
std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Fixed-width, '%.*f'-style numeric cell used by the table printer.
std::string format_double(double v, int precision);

// Escapes a string for inclusion in a JSON document (quotes not added):
// `"`, `\\`, `\n`, `\r` and `\t` get their two-byte escapes, every
// other byte below 0x20 becomes `\u00xx` (lowercase hex), and every
// other byte is copied. json_escape_append appends the same bytes.
std::string json_escape(std::string_view s);
void json_escape_append(std::string& out, std::string_view s);

// Escapes/unescapes one CSV field (RFC-4180 quoting).
std::string csv_escape(std::string_view field);
std::vector<std::string> csv_parse_line(std::string_view line);

// Non-throwing numeric parses for untrusted record fields. The whole
// (trimmed) field must parse; leftover characters, empty fields, signs
// on the unsigned parse, and range overflow all return false. Unlike
// std::stoul, "12abc" and "-1" are rejected instead of accepted.
[[nodiscard]] bool try_parse_u32(std::string_view field, std::uint32_t* out);
[[nodiscard]] bool try_parse_u64(std::string_view field, std::uint64_t* out);
// Accepts anything strtod does, including "nan"/"inf" — finiteness is
// the caller's policy decision, not a parse failure. std::from_chars
// reads the field first; what it rejects (a '+' sign, hex, a range
// error) goes to strtod, so syntax and values are strtod's in the "C"
// locale.
[[nodiscard]] bool try_parse_f64(std::string_view field, double* out);

}  // namespace ss
