#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace ss {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim_view(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string trim(std::string_view s) { return std::string(trim_view(s)); }

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string format_double(double v, int precision) {
  return strprintf("%.*f", precision, v);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  json_escape_append(out, s);
  return out;
}

void json_escape_append(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  // Copies each run of bytes that need no escape in one append.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::string csv_escape(std::string_view field) {
  bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::vector<std::string> csv_parse_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

bool try_parse_u64(std::string_view field, std::uint64_t* out) {
  std::string_view s = trim_view(field);
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  // Digits only, so the one failure left is overflow.
  std::uint64_t v = 0;
  if (std::from_chars(s.data(), s.data() + s.size(), v).ec != std::errc()) {
    return false;
  }
  *out = v;
  return true;
}

bool try_parse_u32(std::string_view field, std::uint32_t* out) {
  std::uint64_t v = 0;
  if (!try_parse_u64(field, &v) || v > 0xffffffffULL) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool try_parse_f64(std::string_view field, double* out) {
  std::string_view view = trim_view(field);
  if (view.empty()) return false;
  const char* last = view.data() + view.size();
  double fast = 0.0;
  auto [stop, error] = std::from_chars(view.data(), last, fast);
  if (error == std::errc() && stop == last) {
    *out = fast;
    return true;
  }
  std::string s(view);
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace ss
