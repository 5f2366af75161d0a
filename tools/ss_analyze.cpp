// ss_analyze — the project's source analyzer (docs/MODEL.md §11, §15).
//
// One pass loads every file once — raw lines plus comment/string-
// scrubbed code lines — and runs two families of checks over it:
//
//   the line rules (§11; tools/analyze/line_rules.h)
//     raw-log-exp, rng-engine, direct-io, float-equality,
//     throw-in-parallel, banned-include, todo-owner, raw-intrinsics,
//     raw-clock, raw-mmap — token patterns judged one line at a time,
//     each scoped by the file's path;
//   the whole-tree checks (§15)
//     layering             architecture include-graph conformance
//                          against tools/analyze/layers.conf
//     must-use             discarded / never-read Expected, Error,
//                          IngestReport and try_* results
//     unordered-reduction  scheduling-dependent float accumulation
//                          inside parallel worker bodies
//     hot-loop-alloc       heap allocation inside loops in the kernel
//                          layer and E/M-step bodies
//
// Usage:
//   ss_analyze [--json] [--list-checks] [--config <layers.conf>]
//              [--dot <path>] [--report <path>] <dir|file>...
//
// Directories are scan roots, walked recursively (directories named
// build, fixtures, or starting with '.' are skipped); a file's path
// relative to its root — with a leading "src/" stripped — decides its
// module for layering. Suppress a finding with a reasoned inline
// comment on (or alone above) the line: the marker (ss-analyze plus a
// colon) followed by `allow(<check>[,<check>...]): <reason>`. A
// reasonless or unknown-check allow is itself a diagnostic
// (bad-suppression), and so is an allow of a check that ran and found
// nothing on its line (unused-suppression); layering runs only with
// --config, so without it an allow(layering) is not judged.
//
// Exit codes: 0 clean, 1 diagnostics, 2 usage or I/O error
// (tools/check.sh relies on them).
//
// C++17 on purpose, like the rest of the analysis gate.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analyze/analysis.h"
#include "analyze/determinism.h"
#include "analyze/hot_loops.h"
#include "analyze/include_graph.h"
#include "analyze/line_rules.h"
#include "analyze/must_use.h"
#include "analyze/scan_common.h"

namespace fs = std::filesystem;

namespace {

struct CheckInfo {
  const char* id;
  const char* summary;
};

// The one catalogue, in --list-checks order: every id an allow() may
// name, then the two diagnostics about suppressions themselves, which
// cannot be allowed.
const CheckInfo kChecks[] = {
    {"raw-log-exp",
     "raw std::log/exp family outside src/math/; use math/logprob.h"},
    {"rng-engine",
     "std RNG engine or rand() outside src/util/rng.*; use ss::Rng"},
    {"direct-io",
     "direct stdout/stderr write in library code; use util/log.h sinks"},
    {"float-equality",
     "==/!= against a float literal; use math::exactly_zero()"},
    {"throw-in-parallel",
     "throw inside a parallel worker lambda; use captured-status"},
    {"banned-include",
     "banned header (<iostream>, <strstream>, C-compat <*.h>)"},
    {"todo-owner",
     "TODO/FIXME/XXX without an owner: write TODO(name): ..."},
    {"raw-intrinsics",
     "intrinsics header or __m*/_mm* token outside src/math/simd/"},
    {"raw-clock",
     "wall-clock read outside src/util/; take time from the caller"},
    {"raw-mmap",
     "raw mmap/fd syscall outside src/data/ + src/util/; go through "
     "data/ssd.h or <fstream>"},
    {"layering",
     "include edge violates the declared layer DAG (layers.conf)"},
    {"must-use",
     "Expected/Error/IngestReport/try_* result discarded or never read"},
    {"unordered-reduction",
     "scheduling-dependent float accumulation in a parallel body"},
    {"hot-loop-alloc",
     "heap allocation inside a loop in a hot (kernel/E-M) body"},
    {"bad-suppression",
     "malformed suppression comment (unknown check or missing reason)"},
    {"unused-suppression",
     "allow() of a check that ran and found nothing on its line"},
};

bool allowable_check(const std::string& id) {
  if (id == "bad-suppression" || id == "unused-suppression") return false;
  for (const CheckInfo& c : kChecks) {
    if (id == c.id) return true;
  }
  return false;
}

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: ss_analyze [--json] [--list-checks] [--config <layers.conf>]\n"
      "                  [--dot <path>] [--report <path>] <dir|file>...\n"
      "exit codes: 0 clean, 1 diagnostics, 2 usage/IO error\n");
}

// Walks a scan root collecting lintable files, skipping build output,
// fixture corpora and dotdirs. Only the *descent* is filtered — an
// explicitly named root is always entered (so the analyzer can be
// pointed straight at a fixture tree in tests).
void walk_root(const fs::path& root, std::vector<fs::path>* out) {
  std::error_code ec;
  std::vector<fs::path> stack{root};
  while (!stack.empty()) {
    fs::path dir = stack.back();
    stack.pop_back();
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      fs::path p = entry.path();
      std::string name = p.filename().string();
      if (entry.is_directory(ec)) {
        if (name.empty() || name[0] == '.' || name == "build" ||
            name == "fixtures") {
          continue;
        }
        stack.push_back(p);
      } else if (scan::lintable(p)) {
        out->push_back(p);
      }
    }
  }
  std::sort(out->begin(), out->end());
}

// Root-relative path with '/' separators and a leading "src/" stripped,
// so src-internal modules and the harness trees (tests/, tools/, ...)
// live in one module namespace.
std::string rel_under(const fs::path& root, const fs::path& file) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  if (ec || rel.empty()) return std::string();
  std::string s = rel.generic_string();
  if (s.rfind("src/", 0) == 0) s = s.substr(4);
  return s;
}

bool load_source(const std::string& path, const std::string& rel,
                 analyze::SourceFile* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->path = path;
  out->rel = rel;
  scan::ScrubState scrub;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out->raw.push_back(line);
    out->code.push_back(scan::scrub_line(line, scrub));
  }
  return true;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "ss_analyze: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string config_path;
  std::string dot_path;
  std::string report_path;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ss_analyze: %s needs an argument\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-checks") {
      for (const CheckInfo& c : kChecks) {
        std::printf("%-20s %s\n", c.id, c.summary);
      }
      return 0;
    } else if (arg == "--config") {
      const char* v = next("--config");
      if (v == nullptr) return 2;
      config_path = v;
    } else if (arg == "--dot") {
      const char* v = next("--dot");
      if (v == nullptr) return 2;
      dot_path = v;
    } else if (arg == "--report") {
      const char* v = next("--report");
      if (v == nullptr) return 2;
      report_path = v;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ss_analyze: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }

  if (inputs.empty()) {
    usage(stderr);
    return 2;
  }

  // Resolve inputs into (path, root-relative path) pairs.
  struct RootedFile {
    std::string path;
    std::string rel;
  };
  std::vector<RootedFile> rooted;
  std::error_code ec;
  for (const std::string& input : inputs) {
    if (fs::is_directory(input, ec)) {
      std::vector<fs::path> files;
      walk_root(input, &files);
      for (const fs::path& f : files) {
        rooted.push_back({f.string(), rel_under(input, f)});
      }
    } else if (fs::exists(input, ec)) {
      rooted.push_back({input, std::string()});
    } else {
      std::fprintf(stderr, "ss_analyze: no such file or directory: %s\n",
                   input.c_str());
      return 2;
    }
  }

  std::vector<scan::Diagnostic> diags;

  analyze::LayerConfig config;
  if (!config_path.empty()) {
    config = analyze::LayerConfig::load(config_path, &diags);
  }

  // Load every file once; all checkers see the same scrubbed view.
  std::vector<analyze::SourceFile> files;
  files.reserve(rooted.size());
  for (const RootedFile& rf : rooted) {
    analyze::SourceFile sf;
    if (!load_source(rf.path, rf.rel, &sf)) {
      std::fprintf(stderr, "ss_analyze: cannot read %s\n", rf.path.c_str());
      return 2;
    }
    files.push_back(std::move(sf));
  }

  // Suppression index from the raw lines (a comment-only allow line
  // targets the next line, a trailing one its own line).
  analyze::SuppressionIndex suppressions;
  for (const analyze::SourceFile& sf : files) {
    analyze::FileSuppressions& fsup = suppressions[sf.path];
    for (std::size_t li = 0; li < sf.raw.size(); ++li) {
      scan::Suppression sup;
      if (!scan::parse_suppression(sf.raw[li], allowable_check, sup)) {
        continue;
      }
      if (!sup.valid) {
        diags.push_back({sf.path, li + 1, "bad-suppression", sup.error});
        continue;
      }
      std::size_t target =
          scan::comment_only_line(sf.raw[li]) ? li + 2 : li + 1;
      for (const std::string& check : sup.rules) {
        fsup.by_line[target].push_back({li + 1, check, false});
      }
    }
  }

  analyze::IncludeGraphChecker graph(
      config_path.empty() ? nullptr : &config);
  analyze::MustUseChecker must_use;
  analyze::DeterminismChecker determinism;
  analyze::HotLoopChecker hot_loops;
  analyze::LineRuleChecker line_rules;

  for (const analyze::SourceFile& sf : files) {
    must_use.build_registry(sf);
  }
  for (const analyze::SourceFile& sf : files) {
    graph.scan_file(sf);
    must_use.scan_file(sf, &diags);
    determinism.scan_file(sf, &diags);
    hot_loops.scan_file(sf, &diags);
    line_rules.scan_file(sf, &diags);
  }
  graph.finalize(&diags);

  if (!dot_path.empty() && !write_text(dot_path, graph.dot())) return 2;
  if (!report_path.empty() && !write_text(report_path, graph.markdown())) {
    return 2;
  }

  // Filter through suppressions, report the allows that silenced
  // nothing among the checks that ran, dedupe, sort.
  std::vector<scan::Diagnostic> kept;
  for (const scan::Diagnostic& d : diags) {
    auto it = suppressions.find(d.file);
    if (it != suppressions.end() && d.rule != "bad-suppression" &&
        it->second.suppress(d.line, d.rule)) {
      continue;
    }
    kept.push_back(d);
  }
  for (const auto& [path, fsup] : suppressions) {
    for (const auto& [target, allows] : fsup.by_line) {
      for (const analyze::FileSuppressions::Allow& allow : allows) {
        if (allow.used || (allow.check == "layering" && config_path.empty())) {
          continue;
        }
        kept.push_back({path, allow.marker_line, "unused-suppression",
                        "allow(" + allow.check + ") silences no " +
                            allow.check + " diagnostic on line " +
                            std::to_string(target)});
      }
    }
  }
  scan::sort_diagnostics(kept);
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const scan::Diagnostic& a,
                            const scan::Diagnostic& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.rule == b.rule &&
                                  a.message == b.message;
                         }),
             kept.end());

  if (json) {
    std::fputs(scan::diagnostics_json(kept, files.size()).c_str(), stdout);
  } else {
    scan::print_diagnostics(kept, files.size());
  }
  return kept.empty() ? 0 : 1;
}
