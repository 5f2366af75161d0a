// Shared types for the ss_analyze checkers (docs/MODEL.md §11, §15).
//
// The driver (tools/ss_analyze.cpp) loads every file once — raw lines
// plus comment/string-scrubbed code lines — and hands the same
// SourceFile to each checker. Checkers emit diagnostics freely; the
// driver filters them through the per-line suppression map (the
// ss-analyze marker plus `allow(<check>): <reason>`), dedupes, sorts.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/scan_common.h"

namespace analyze {

struct SourceFile {
  std::string path;  // as opened; what diagnostics print
  // Normalized path relative to its scan root, e.g. "core/em_ext.cpp".
  // Empty for bare-file inputs (layering needs a tree to have meaning).
  std::string rel;
  std::vector<std::string> raw;
  std::vector<std::string> code;  // scrubbed (comments/strings blanked)
};

// First path component of a root-relative path: the module a file
// belongs to ("core/em_ext.cpp" -> "core"). Empty when there is none.
inline std::string module_of(const std::string& rel) {
  std::size_t slash = rel.find('/');
  return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

// Per-file suppression map, built by the driver from the raw lines.
struct FileSuppressions {
  std::map<std::size_t, std::set<std::string>> by_line;

  bool suppressed(std::size_t line, const std::string& rule) const {
    auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule) > 0;
  }
};

// file path -> suppressions; keyed by SourceFile::path.
using SuppressionIndex = std::map<std::string, FileSuppressions>;

}  // namespace analyze
