// ss_lint — project-rule linter for the social-sensing library code.
//
// Enforces the invariants the engine's correctness rests on but the
// compiler cannot see (docs/MODEL.md §11 has the full rationale):
//
//   raw-log-exp        (R1) no raw std::log/std::exp/std::log1p family
//                      calls outside src/math/ — probabilities go
//                      through math/logprob.h / math/kernels.h, which
//                      own clamping and the log-space conventions.
//   rng-engine         (R2) no std RNG engines or C rand()/srand()
//                      outside src/util/rng.* — everything draws from
//                      the splittable ss::Rng so parallel streams stay
//                      independent and runs stay reproducible.
//   direct-io          (R3) no std::cout/std::cerr/printf-family writes
//                      in library code — diagnostics go through
//                      util/log.h, product bytes through its
//                      write_stdout/write_stderr sinks (src/util/log.*
//                      is the one exempt home).
//   float-equality     (R4) no ==/!= against floating-point literals —
//                      the sanctioned exact compares use
//                      math::exactly_zero().
//   throw-in-parallel  (R5) no `throw` lexically inside a lambda passed
//                      to parallel_for / parallel_for_chunks /
//                      kernels::for_each_chunk / kernels::tree_reduce —
//                      a throwing chunk surfaces as the *call's*
//                      exception; workers report failure via
//                      Expected<T>/captured status instead.
//   banned-include     (R6) no <iostream> (static-init fiasco, heavy
//                      TU cost; the library formats via strprintf), no
//                      deprecated <strstream>, no C-compat headers
//                      (<stdio.h> et al — use the <c*> forms).
//   todo-owner         (R6) no TODO/FIXME/XXX without an owner:
//                      `TODO(name): ...`.
//   raw-intrinsics     (R7) no SIMD intrinsics headers (<immintrin.h>
//                      et al) or __m*/_mm* tokens outside
//                      src/math/simd/ — vector code lives behind the
//                      runtime-dispatched kernel API (math/kernels.h),
//                      so portable hosts and the scalar bit-identity
//                      contract are never at the mercy of a stray
//                      intrinsic in estimator code.
//   raw-clock          (R8) no wall-clock reads
//                      (std::chrono::*_clock, time(), gettimeofday,
//                      clock_gettime) outside src/util/ — deterministic
//                      code takes time from its caller, so the
//                      simulation harness (src/sim/) can replace it
//                      with a virtual clock and replay runs from a
//                      seed. util/timer.h and util/log.* are the
//                      sanctioned homes for real time.
//   raw-mmap           (R9) no raw file mapping or fd-level syscalls
//                      (mmap/munmap/msync family, ::open/::openat,
//                      MapViewOfFile/CreateFileMapping) outside
//                      src/data/ + src/util/ — the .ssd reader/writer
//                      (data/ssd.*) and the checkpoint layer own the
//                      platform-specific mapping code paths, with their
//                      error taxonomy and cleanup; everything else
//                      reads through those layers or <fstream>.
//
// Suppression: append `// ss-lint: allow(<rule>[,<rule>...]): <reason>`
// to the offending line, or put it alone on the line above. The reason
// is mandatory — an allow without one is itself a diagnostic
// (bad-suppression), which is how "every suppression carries a written
// reason" is enforced rather than hoped for.
//
// The scanner is token-level, not a C++ parser: each line is scrubbed
// of comments and string/char literals (block comments tracked across
// lines) before the rule patterns run, so banned tokens in prose or
// test strings don't fire. Raw string literals are treated as ordinary
// strings — good enough for this codebase, which has none.
//
// Usage: ss_lint [--json] [--list-rules] <file-or-dir>...
// Exit:  0 clean, 1 diagnostics emitted, 2 usage/IO error.
//
// Built as C++17 on purpose: the linter must stay buildable by older
// toolchains in CI images that predate the library's C++20 requirement.

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analyze/scan_common.h"

namespace {

using scan::Diagnostic;
using scan::ScrubState;
using scan::file_is;
using scan::in_dir;
using scan::normalize;
using scan::scrub_line;

struct RuleInfo {
  const char* id;
  const char* legacy;  // issue-tracker shorthand (R1..R6)
  const char* summary;
};

const RuleInfo kRules[] = {
    {"raw-log-exp", "R1",
     "raw std::log/exp family outside src/math/; use math/logprob.h"},
    {"rng-engine", "R2",
     "std RNG engine or rand() outside src/util/rng.*; use ss::Rng"},
    {"direct-io", "R3",
     "direct stdout/stderr write in library code; use util/log.h sinks"},
    {"float-equality", "R4",
     "==/!= against a float literal; use math::exactly_zero()"},
    {"throw-in-parallel", "R5",
     "throw inside a parallel worker lambda; use captured-status"},
    {"banned-include", "R6",
     "banned header (<iostream>, <strstream>, C-compat <*.h>)"},
    {"todo-owner", "R6",
     "TODO/FIXME/XXX without an owner: write TODO(name): ..."},
    {"raw-intrinsics", "R7",
     "intrinsics header or __m*/_mm* token outside src/math/simd/"},
    {"raw-clock", "R8",
     "wall-clock read outside src/util/; take time from the caller"},
    {"raw-mmap", "R9",
     "raw mmap/fd syscall outside src/data/ + src/util/; go through "
     "data/ssd.h or <fstream>"},
    {"bad-suppression", "-",
     "malformed ss-lint comment (unknown rule or missing reason)"},
};

bool known_rule(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// The scanner.

class FileScanner {
 public:
  FileScanner(std::string path, std::vector<Diagnostic>& sink)
      : path_(normalize(std::move(path))),
        sink_(sink),
        exempt_math_(in_dir(path_, "math")),
        exempt_simd_(in_dir(path_, "math/simd")),
        exempt_rng_(file_is(path_, "rng") && in_dir(path_, "util")),
        exempt_log_(file_is(path_, "log") && in_dir(path_, "util")),
        exempt_util_(in_dir(path_, "util")),
        exempt_data_(in_dir(path_, "data")) {}

  bool scan() {
    std::ifstream in(path_);
    if (!in) return false;
    std::string raw;
    std::size_t lineno = 0;
    while (std::getline(in, raw)) {
      ++lineno;
      step(raw, lineno);
    }
    return true;
  }

 private:
  void diag(std::size_t line, const char* rule, std::string message) {
    if (suppressions_.suppressed(rule, line)) return;
    sink_.push_back({path_, line, rule, std::move(message)});
  }

  void step(const std::string& raw, std::size_t lineno) {
    // Suppressions first: they live in comments, which scrubbing eats.
    suppressions_.step(raw, lineno, path_, sink_);

    check_todo(raw, lineno);
    check_banned_include(raw, lineno);

    std::string code = scrub_line(raw, scrub_);
    check_raw_intrinsics(raw, code, lineno);
    check_raw_log_exp(code, lineno);
    check_rng_engine(code, lineno);
    check_direct_io(code, lineno);
    check_float_equality(code, lineno);
    check_throw_in_parallel(code, lineno);
    check_raw_clock(code, lineno);
    check_raw_mmap(code, lineno);
  }

  void check_todo(const std::string& raw, std::size_t lineno) {
    static const std::regex re(
        R"(\b(TODO|FIXME|XXX)\b(\s*\(\s*[A-Za-z0-9_.\- ]+\s*\))?)");
    for (auto it = std::sregex_iterator(raw.begin(), raw.end(), re);
         it != std::sregex_iterator(); ++it) {
      if ((*it)[2].matched) continue;  // has an owner
      diag(lineno, "todo-owner",
           (*it)[1].str() + " without an owner; write " +
               (*it)[1].str() + "(name): ...");
    }
  }

  void check_banned_include(const std::string& raw, std::size_t lineno) {
    static const std::regex re(
        R"(^\s*#\s*include\s*<(iostream|strstream|stdio\.h|stdlib\.h|string\.h|math\.h|assert\.h|time\.h)>)");
    std::smatch m;
    if (!std::regex_search(raw, m, re)) return;
    std::string header = m[1].str();
    std::string why =
        header == "iostream"
            ? "library code formats via strprintf and util/log.h"
        : header == "strstream"
            ? "deprecated since C++98"
            : "use the <c" + header.substr(0, header.size() - 2) +
                  "> form";
    diag(lineno, "banned-include",
         "banned header <" + header + ">: " + why);
  }

  void check_raw_intrinsics(const std::string& raw,
                            const std::string& code, std::size_t lineno) {
    if (exempt_simd_) return;
    // The include form is checked on the raw line (preprocessor
    // directives survive scrubbing anyway, but keep it symmetric with
    // banned-include); the token form runs on scrubbed code so prose
    // mentions of __m256d in comments or strings never fire.
    static const std::regex inc_re(
        R"(^\s*#\s*include\s*[<"]([A-Za-z0-9_/]*intrin\.h|arm_neon\.h)[>"])");
    std::smatch m;
    if (std::regex_search(raw, m, inc_re)) {
      diag(lineno, "raw-intrinsics",
           "<" + m[1].str() +
               "> outside src/math/simd/; vector code lives behind the "
               "runtime-dispatched kernel API (math/kernels.h)");
      return;
    }
    static const std::regex tok_re(
        R"(\b(__m(64|128|256|512)[di]?|_mm(256|512)?_[A-Za-z0-9_]+)\b)");
    if (std::regex_search(code, m, tok_re)) {
      diag(lineno, "raw-intrinsics",
           m[1].str() +
               " outside src/math/simd/; add a kernel behind the "
               "dispatched API (math/kernels.h) instead");
    }
  }

  void check_raw_log_exp(const std::string& code, std::size_t lineno) {
    if (exempt_math_) return;
    static const std::regex re(
        R"(\bstd::(log|log1p|log2|log10|exp|expm1)\s*\()");
    std::smatch m;
    if (!std::regex_search(code, m, re)) return;
    diag(lineno, "raw-log-exp",
         "raw std::" + m[1].str() +
             " outside src/math/; probabilities go through "
             "math/logprob.h (safe_log/safe_log1m/from_log) or the "
             "kernel tables");
  }

  void check_rng_engine(const std::string& code, std::size_t lineno) {
    if (exempt_rng_) return;
    static const std::regex re(
        R"(\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine|random_device|ranlux(24|48)(_base)?|knuth_b|mersenne_twister_engine|linear_congruential_engine|subtract_with_carry_engine)\b)");
    static const std::regex c_re(R"((^|[^A-Za-z0-9_])s?rand\s*\()");
    std::smatch m;
    if (std::regex_search(code, m, re)) {
      diag(lineno, "rng-engine",
           "std::" + m[1].str() +
               " outside src/util/rng.*; draw from the splittable "
               "ss::Rng so parallel streams stay reproducible");
      return;
    }
    if (std::regex_search(code, m, c_re)) {
      diag(lineno, "rng-engine",
           "C rand()/srand() outside src/util/rng.*; draw from ss::Rng");
    }
  }

  void check_direct_io(const std::string& code, std::size_t lineno) {
    if (exempt_log_) return;
    static const std::regex stream_re(R"(\bstd::(cout|cerr|clog)\b)");
    // `:` is allowed before the name so std::printf is caught; strprintf
    // and vsnprintf stay invisible because their match candidate is
    // preceded by an identifier character.
    static const std::regex stdio_re(
        R"((^|[^A-Za-z0-9_])(printf|fprintf|vfprintf|fputs|fputc|fwrite|puts|putchar|perror)\s*\()");
    std::smatch m;
    if (std::regex_search(code, m, stream_re)) {
      diag(lineno, "direct-io",
           "std::" + m[1].str() +
               " in library code; route diagnostics through util/log.h "
               "(SS_INFO et al) and product bytes through "
               "write_stdout/write_stderr");
      return;
    }
    if (std::regex_search(code, m, stdio_re)) {
      diag(lineno, "direct-io",
           m[2].str() +
               "() in library code; route diagnostics through "
               "util/log.h and product bytes through "
               "write_stdout/write_stderr");
    }
  }

  void check_float_equality(const std::string& code, std::size_t lineno) {
    // A float literal on either side of ==/!=: 0.0, 1., .5, 1e-9, 2.5f.
    static const std::regex re(
        R"((==|!=)\s*[+-]?(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+)|([^A-Za-z0-9_.]|^)(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+)[fFlL]?\s*(==|!=))");
    if (!std::regex_search(code, re)) return;
    diag(lineno, "float-equality",
         "==/!= against a float literal; if the exact compare is "
         "intended, say so with math::exactly_zero()");
  }

  void check_throw_in_parallel(const std::string& code,
                               std::size_t lineno) {
    // Lexical tracking of the brace extent that follows a parallel
    // dispatch call. Any `throw` in that extent escapes as the
    // *dispatch call's* exception (the pool reruns every chunk and
    // rethrows the lowest failing one) — worker bodies must capture
    // status instead.
    static const std::regex call_re(
        R"(\b(parallel_for_chunks|parallel_for|for_each_chunk|tree_reduce)\s*\()");
    static const std::regex throw_re(R"(\bthrow\b)");

    bool inside_body_this_line =
        depth_ > 0;  // carried over from previous lines
    std::size_t scan_from = 0;
    if (depth_ == 0 && !armed_) {
      std::smatch m;
      if (std::regex_search(code, m, call_re)) {
        armed_ = true;
        scan_from = static_cast<std::size_t>(m.position(0));
      }
    }
    if (armed_ || depth_ > 0) {
      for (std::size_t i = scan_from; i < code.size(); ++i) {
        if (code[i] == '{') {
          ++depth_;
          armed_ = false;
          inside_body_this_line = true;
        } else if (code[i] == '}') {
          if (depth_ > 0 && --depth_ == 0) {
            // Region closed; the rest of the line is outside.
            break;
          }
        }
      }
      // A dispatch whose statement ended without any brace (e.g. a
      // function pointer argument) never opened a region.
      if (armed_ && code.find(';') != std::string::npos) armed_ = false;
    }
    if (inside_body_this_line && std::regex_search(code, throw_re)) {
      diag(lineno, "throw-in-parallel",
           "throw inside a parallel worker lambda; it escapes as the "
           "dispatch call's exception — capture an Expected<T>/status "
           "per chunk instead");
    }
  }

  void check_raw_clock(const std::string& code, std::size_t lineno) {
    if (exempt_util_) return;
    // Any mention of the clock types — not just ::now() — so a local
    // `using clock = std::chrono::steady_clock;` alias cannot dodge
    // the rule.
    static const std::regex chrono_re(
        R"(\b(std::)?chrono::(steady_clock|system_clock|high_resolution_clock)\b)");
    // Bare or std:: time(...) calls; the negated class keeps member
    // accesses (`t.time`) and suffixed names (`claim_time(`) silent.
    static const std::regex time_re(
        R"((^|[^A-Za-z0-9_.:>])(std::)?time\s*\()");
    static const std::regex posix_re(
        R"(\b(gettimeofday|clock_gettime|timespec_get)\s*\()");
    std::smatch m;
    if (std::regex_search(code, m, chrono_re)) {
      diag(lineno, "raw-clock",
           "std::chrono::" + m[2].str() +
               " outside src/util/; deterministic code takes time from "
               "its caller (the simulation substitutes "
               "sim::VirtualClock) — real time lives in util/timer.h");
      return;
    }
    if (std::regex_search(code, m, time_re)) {
      diag(lineno, "raw-clock",
           "time() read outside src/util/; take timestamps from the "
           "caller so runs replay deterministically");
      return;
    }
    if (std::regex_search(code, m, posix_re)) {
      diag(lineno, "raw-clock",
           m[1].str() +
               "() outside src/util/; take timestamps from the caller "
               "so runs replay deterministically");
    }
  }

  void check_raw_mmap(const std::string& code, std::size_t lineno) {
    if (exempt_data_ || exempt_util_) return;
    // The mapping family fires on the bare token (both `mmap(` and
    // `::mmap(` spellings); the fd-level calls require the explicit
    // `::` qualifier so member functions like std::ifstream::open —
    // spelled `file.open(...)` — never match.
    static const std::regex map_re(
        R"(\b(mmap|mmap64|munmap|mremap|msync|shm_open|shm_unlink|MapViewOfFile(Ex)?|UnmapViewOfFile|CreateFileMapping[AW]?)\s*\()");
    static const std::regex fd_re(
        R"((^|[^A-Za-z0-9_])::\s*(open|openat|creat|ftruncate)\s*\()");
    std::smatch m;
    if (std::regex_search(code, m, map_re)) {
      diag(lineno, "raw-mmap",
           m[1].str() +
               "() outside src/data/ + src/util/; file mapping lives in "
               "the .ssd layer (data/ssd.h) and the checkpoint layer, "
               "which own the error taxonomy and cleanup");
      return;
    }
    if (std::regex_search(code, m, fd_re)) {
      diag(lineno, "raw-mmap",
           "::" + m[2].str() +
               "() outside src/data/ + src/util/; open files through "
               "data/ssd.h, util/checkpoint.h or <fstream>");
    }
  }

  std::string path_;
  std::vector<Diagnostic>& sink_;
  bool exempt_math_;
  bool exempt_simd_;
  bool exempt_rng_;
  bool exempt_log_;
  bool exempt_util_;
  bool exempt_data_;
  ScrubState scrub_;
  scan::SuppressionTracker suppressions_{"ss-lint:", known_rule};
  // throw-in-parallel state.
  bool armed_ = false;   // saw the call, waiting for the first `{`
  int depth_ = 0;        // brace depth inside the worker-lambda extent
};

// ---------------------------------------------------------------------

int usage() {
  std::fputs(
      "usage: ss_lint [--json] [--list-rules] <file-or-dir>...\n"
      "exit codes: 0 clean, 1 diagnostics, 2 usage/IO error\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool list_rules = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ss_lint: unknown flag %s\n", arg.c_str());
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (list_rules) {
    for (const RuleInfo& r : kRules) {
      std::printf("%-18s %-3s %s\n", r.id, r.legacy, r.summary);
    }
    return 0;
  }
  if (inputs.empty()) return usage();

  std::vector<std::string> files;
  std::string missing;
  if (!scan::collect_files(inputs, &files, &missing)) {
    std::fprintf(stderr, "ss_lint: no such file or directory: %s\n",
                 missing.c_str());
    return 2;
  }

  std::vector<Diagnostic> diags;
  for (const std::string& file : files) {
    FileScanner scanner(file, diags);
    if (!scanner.scan()) {
      std::fprintf(stderr, "ss_lint: cannot read %s\n", file.c_str());
      return 2;
    }
  }

  if (json) {
    std::fputs(scan::diagnostics_json(diags, files.size()).c_str(),
               stdout);
  } else {
    scan::print_diagnostics(diags, files.size(), "ss_lint");
  }
  return diags.empty() ? 0 : 1;
}
