// Scanner substrate of tools/ss_analyze (docs/MODEL.md §11, §15):
// line scrubbing, the suppression grammar, path scoping and file:line
// diagnostics in text or JSON. The checks themselves live in their own
// files under tools/analyze/.
//
// C++17 on purpose, like the rest of the analysis gate.
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace scan {

struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// Stable output order: file, then line, then rule id.
void sort_diagnostics(std::vector<Diagnostic>& diags);

// ---------------------------------------------------------------------
// Line scrubbing: blank out comments and string/char literals so rule
// patterns only ever see code tokens. Removed characters become spaces
// (token boundaries survive, columns are irrelevant to the output).
// Block comments are tracked across lines via the carried state.

struct ScrubState {
  bool in_block_comment = false;
};

std::string scrub_line(const std::string& line, ScrubState& state);

// ---------------------------------------------------------------------
// Suppressions: the marker (ss-analyze plus a colon) followed by
// `allow(<rule>[,<rule>...]): <reason>`, in a comment on the offending
// line or alone on the line above. The reason is mandatory — an allow
// without one is itself a diagnostic, which is how "every suppression
// carries a written reason" is enforced rather than hoped for.

struct Suppression {
  std::set<std::string> rules;
  bool valid = true;
  std::string error;
};

// Parses the marker out of a raw line, if present. Returns true when
// the marker exists (even malformed — the caller reports malformed
// markers as bad-suppression diagnostics). `known` validates rule ids.
bool parse_suppression(const std::string& raw,
                       const std::function<bool(const std::string&)>& known,
                       Suppression& out);

// True when the raw line holds nothing but the comment (so the
// suppression targets the *next* line).
bool comment_only_line(const std::string& raw);

// ---------------------------------------------------------------------
// Path scoping.

std::string normalize(std::string path);

// Matches "<...>/<dir>/..." or a path that starts with "<dir>/".
bool in_dir(const std::string& path, const char* dir);

// Matches "<...>/<stem>.<ext>" for any extension.
bool file_is(const std::string& path, const char* stem);

// True for the C++ source and header extensions a scan walks.
bool lintable(const std::filesystem::path& p);

// ---------------------------------------------------------------------
// Emission.

// {"files_scanned":N,"diagnostics":[{file,line,rule,message}...]}
std::string diagnostics_json(const std::vector<Diagnostic>& diags,
                             std::size_t files_scanned);

// "<file>:<line>: [<rule>] <message>" lines plus a trailing
// "ss_analyze: N diagnostics in M files scanned" summary when non-empty.
void print_diagnostics(const std::vector<Diagnostic>& diags,
                       std::size_t files_scanned);

}  // namespace scan
