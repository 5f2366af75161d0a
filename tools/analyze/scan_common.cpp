#include "analyze/scan_common.h"

#include <algorithm>
#include <cstdio>

namespace scan {

void sort_diagnostics(std::vector<Diagnostic>& diags) {
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
}

std::string scrub_line(const std::string& line, ScrubState& state) {
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  while (i < line.size()) {
    if (state.in_block_comment) {
      if (line.compare(i, 2, "*/") == 0) {
        state.in_block_comment = false;
        out += "  ";
        i += 2;
      } else {
        out += ' ';
        ++i;
      }
      continue;
    }
    char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      // Line comment: nothing after it is code.
      out.append(line.size() - i, ' ');
      break;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      state.in_block_comment = true;
      out += "  ";
      i += 2;
      continue;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      out += ' ';
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          out += "  ";
          i += 2;
          continue;
        }
        bool closing = line[i] == quote;
        out += ' ';
        ++i;
        if (closing) break;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

bool parse_suppression(const std::string& raw,
                       const std::function<bool(const std::string&)>& known,
                       Suppression& out) {
  // Split literal so the analyzer's own source stays marker-free.
  static const std::string marker = "ss-" "analyze:";
  std::size_t at = raw.find(marker);
  if (at == std::string::npos) return false;
  std::size_t p = at + marker.size();
  while (p < raw.size() && raw[p] == ' ') ++p;
  const std::string verb = "allow(";
  if (raw.compare(p, verb.size(), verb) != 0) {
    out.valid = false;
    out.error = "expected `allow(<rule>[,<rule>...]): <reason>`";
    return true;
  }
  p += verb.size();
  std::size_t close = raw.find(')', p);
  if (close == std::string::npos) {
    out.valid = false;
    out.error = "unterminated allow(...)";
    return true;
  }
  std::string list = raw.substr(p, close - p);
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    std::string id = list.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    // Trim.
    while (!id.empty() && id.front() == ' ') id.erase(id.begin());
    while (!id.empty() && id.back() == ' ') id.pop_back();
    if (id.empty()) {
      out.valid = false;
      out.error = "empty rule id in allow(...)";
      return true;
    }
    if (!known(id)) {
      out.valid = false;
      out.error = "unknown rule `" + id + "` in allow(...)";
      return true;
    }
    out.rules.insert(id);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  // The reason is mandatory: `): <non-empty text>`.
  std::size_t after = close + 1;
  while (after < raw.size() && raw[after] == ' ') ++after;
  if (after >= raw.size() || raw[after] != ':') {
    out.valid = false;
    out.error = "missing `: <reason>` after allow(...)";
    return true;
  }
  ++after;
  while (after < raw.size() && raw[after] == ' ') ++after;
  if (after >= raw.size()) {
    out.valid = false;
    out.error = "empty suppression reason — say why the rule is wrong here";
    return true;
  }
  return true;
}

bool comment_only_line(const std::string& raw) {
  std::size_t i = 0;
  while (i < raw.size() && (raw[i] == ' ' || raw[i] == '\t')) ++i;
  return raw.compare(i, 2, "//") == 0;
}

std::string normalize(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool in_dir(const std::string& path, const char* dir) {
  std::string needle = std::string("/") + dir + "/";
  if (path.find(needle) != std::string::npos) return true;
  return path.rfind(std::string(dir) + "/", 0) == 0;
}

bool file_is(const std::string& path, const char* stem) {
  std::size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  std::string prefix = std::string(stem) + ".";
  return base.rfind(prefix, 0) == 0;
}

bool lintable(const std::filesystem::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string diagnostics_json(const std::vector<Diagnostic>& diags,
                             std::size_t files_scanned) {
  std::string out = "{\"files_scanned\":" +
                    std::to_string(files_scanned) +
                    ",\"diagnostics\":[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i > 0) out += ',';
    out += "{\"file\":\"" + json_escape(d.file) + "\",\"line\":" +
           std::to_string(d.line) + ",\"rule\":\"" +
           json_escape(d.rule) + "\",\"message\":\"" +
           json_escape(d.message) + "\"}";
  }
  out += "]}\n";
  return out;
}

void print_diagnostics(const std::vector<Diagnostic>& diags,
                       std::size_t files_scanned) {
  for (const Diagnostic& d : diags) {
    std::printf("%s:%zu: [%s] %s\n", d.file.c_str(), d.line,
                d.rule.c_str(), d.message.c_str());
  }
  if (!diags.empty()) {
    std::printf("ss_analyze: %zu diagnostic%s in %zu file%s scanned\n",
                diags.size(), diags.size() == 1 ? "" : "s",
                files_scanned, files_scanned == 1 ? "" : "s");
  }
}

}  // namespace scan
