#include "analyze/line_rules.h"

#include <regex>
#include <string>

namespace analyze {
namespace {

// Emits one diagnostic for the line being judged.
struct LineSink {
  const std::string& path;
  std::size_t line;
  std::vector<scan::Diagnostic>* out;

  void operator()(const char* rule, std::string message) const {
    out->push_back({path, line, rule, std::move(message)});
  }
};

void check_todo(const std::string& raw, const LineSink& diag) {
  static const std::regex re(
      R"(\b(TODO|FIXME|XXX)\b(\s*\(\s*[A-Za-z0-9_.\- ]+\s*\))?)");
  for (auto it = std::sregex_iterator(raw.begin(), raw.end(), re);
       it != std::sregex_iterator(); ++it) {
    if ((*it)[2].matched) continue;  // has an owner
    diag("todo-owner", (*it)[1].str() + " without an owner; write " +
                           (*it)[1].str() + "(name): ...");
  }
}

void check_banned_include(const std::string& raw, const LineSink& diag) {
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
          : "use the <c" + header.substr(0, header.size() - 2) + "> form";
  diag("banned-include", "banned header <" + header + ">: " + why);
}

void check_raw_intrinsics(const std::string& raw, const std::string& code,
                          const LineSink& diag) {
  // The include form is checked on the raw line (preprocessor
  // directives survive scrubbing anyway, but keep it symmetric with
  // banned-include); the token form runs on scrubbed code so prose
  // mentions of __m256d in comments or strings never fire.
  static const std::regex inc_re(
      R"(^\s*#\s*include\s*[<"]([A-Za-z0-9_/]*intrin\.h|arm_neon\.h)[>"])");
  std::smatch m;
  if (std::regex_search(raw, m, inc_re)) {
    diag("raw-intrinsics",
         "<" + m[1].str() +
             "> outside src/math/simd/; vector code lives behind the "
             "runtime-dispatched kernel API (math/kernels.h)");
    return;
  }
  static const std::regex tok_re(
      R"(\b(__m(64|128|256|512)[di]?|_mm(256|512)?_[A-Za-z0-9_]+)\b)");
  if (std::regex_search(code, m, tok_re)) {
    diag("raw-intrinsics",
         m[1].str() +
             " outside src/math/simd/; add a kernel behind the "
             "dispatched API (math/kernels.h) instead");
  }
}

void check_raw_log_exp(const std::string& code, const LineSink& diag) {
  static const std::regex re(
      R"(\bstd::(log|log1p|log2|log10|exp|expm1)\s*\()");
  std::smatch m;
  if (!std::regex_search(code, m, re)) return;
  diag("raw-log-exp",
       "raw std::" + m[1].str() +
           " outside src/math/; probabilities go through "
           "math/logprob.h (safe_log/safe_log1m/from_log) or the "
           "kernel tables");
}

void check_rng_engine(const std::string& code, const LineSink& diag) {
  static const std::regex re(
      R"(\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine|random_device|ranlux(24|48)(_base)?|knuth_b|mersenne_twister_engine|linear_congruential_engine|subtract_with_carry_engine)\b)");
  static const std::regex c_re(R"((^|[^A-Za-z0-9_])s?rand\s*\()");
  std::smatch m;
  if (std::regex_search(code, m, re)) {
    diag("rng-engine",
         "std::" + m[1].str() +
             " outside src/util/rng.*; draw from the splittable "
             "ss::Rng so parallel streams stay reproducible");
    return;
  }
  if (std::regex_search(code, m, c_re)) {
    diag("rng-engine",
         "C rand()/srand() outside src/util/rng.*; draw from ss::Rng");
  }
}

void check_direct_io(const std::string& code, const LineSink& diag) {
  static const std::regex stream_re(R"(\bstd::(cout|cerr|clog)\b)");
  // `:` is allowed before the name so std::printf is caught; strprintf
  // and vsnprintf stay invisible because their match candidate is
  // preceded by an identifier character.
  static const std::regex stdio_re(
      R"((^|[^A-Za-z0-9_])(printf|fprintf|vfprintf|fputs|fputc|fwrite|puts|putchar|perror)\s*\()");
  std::smatch m;
  if (std::regex_search(code, m, stream_re)) {
    diag("direct-io",
         "std::" + m[1].str() +
             " in library code; route diagnostics through util/log.h "
             "(SS_INFO et al) and product bytes through "
             "write_stdout/write_stderr");
    return;
  }
  if (std::regex_search(code, m, stdio_re)) {
    diag("direct-io",
         m[2].str() +
             "() in library code; route diagnostics through "
             "util/log.h and product bytes through "
             "write_stdout/write_stderr");
  }
}

void check_float_equality(const std::string& code, const LineSink& diag) {
  // A float literal on either side of ==/!=: 0.0, 1., .5, 1e-9, 2.5f.
  static const std::regex re(
      R"((==|!=)\s*[+-]?(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+)|([^A-Za-z0-9_.]|^)(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+)[fFlL]?\s*(==|!=))");
  if (!std::regex_search(code, re)) return;
  diag("float-equality",
       "==/!= against a float literal; if the exact compare is "
       "intended, say so with math::exactly_zero()");
}

// Lexical tracking of the brace extent that follows a parallel
// dispatch call. Any `throw` in that extent escapes as the *dispatch
// call's* exception (the pool reruns every chunk and rethrows the
// lowest failing one) — worker bodies must capture status instead.
struct ParallelBodyState {
  bool armed = false;  // saw the call, waiting for the first `{`
  int depth = 0;       // brace depth inside the worker-lambda extent
};

void check_throw_in_parallel(const std::string& code, ParallelBodyState& s,
                             const LineSink& diag) {
  static const std::regex call_re(
      R"(\b(parallel_for_chunks|parallel_for|for_each_chunk|tree_reduce)\s*\()");
  static const std::regex throw_re(R"(\bthrow\b)");

  bool inside_body_this_line = s.depth > 0;  // carried over
  std::size_t scan_from = 0;
  if (s.depth == 0 && !s.armed) {
    std::smatch m;
    if (std::regex_search(code, m, call_re)) {
      s.armed = true;
      scan_from = static_cast<std::size_t>(m.position(0));
    }
  }
  if (s.armed || s.depth > 0) {
    for (std::size_t i = scan_from; i < code.size(); ++i) {
      if (code[i] == '{') {
        ++s.depth;
        s.armed = false;
        inside_body_this_line = true;
      } else if (code[i] == '}') {
        if (s.depth > 0 && --s.depth == 0) {
          // Region closed; the rest of the line is outside.
          break;
        }
      }
    }
    // A dispatch whose statement ended without any brace (e.g. a
    // function pointer argument) never opened a region.
    if (s.armed && code.find(';') != std::string::npos) s.armed = false;
  }
  if (inside_body_this_line && std::regex_search(code, throw_re)) {
    diag("throw-in-parallel",
         "throw inside a parallel worker lambda; it escapes as the "
         "dispatch call's exception — capture an Expected<T>/status "
         "per chunk instead");
  }
}

void check_raw_clock(const std::string& code, const LineSink& diag) {
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
    diag("raw-clock",
         "std::chrono::" + m[2].str() +
             " outside src/util/; deterministic code takes time from "
             "its caller (the simulation substitutes "
             "sim::VirtualClock) — real time lives in util/timer.h");
    return;
  }
  if (std::regex_search(code, m, time_re)) {
    diag("raw-clock",
         "time() read outside src/util/; take timestamps from the "
         "caller so runs replay deterministically");
    return;
  }
  if (std::regex_search(code, m, posix_re)) {
    diag("raw-clock",
         m[1].str() +
             "() outside src/util/; take timestamps from the caller "
             "so runs replay deterministically");
  }
}

void check_raw_mmap(const std::string& code, const LineSink& diag) {
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
    diag("raw-mmap",
         m[1].str() +
             "() outside src/data/ + src/util/; file mapping lives in "
             "the .ssd layer (data/ssd.h) and the checkpoint layer, "
             "which own the error taxonomy and cleanup");
    return;
  }
  if (std::regex_search(code, m, fd_re)) {
    diag("raw-mmap",
         "::" + m[2].str() +
             "() outside src/data/ + src/util/; open files through "
             "data/ssd.h, util/checkpoint.h or <fstream>");
  }
}

}  // namespace

void LineRuleChecker::scan_file(const SourceFile& file,
                                std::vector<scan::Diagnostic>* sink) const {
  const std::string path = scan::normalize(file.path);
  const bool in_math = scan::in_dir(path, "math");
  const bool in_simd = scan::in_dir(path, "math/simd");
  const bool in_util = scan::in_dir(path, "util");
  const bool in_data = scan::in_dir(path, "data");
  const bool is_rng = in_util && scan::file_is(path, "rng");
  const bool is_log = in_util && scan::file_is(path, "log");

  ParallelBodyState parallel;
  for (std::size_t li = 0; li < file.raw.size(); ++li) {
    const std::string& raw = file.raw[li];
    const std::string& code = file.code[li];
    const LineSink diag{file.path, li + 1, sink};
    check_todo(raw, diag);
    check_banned_include(raw, diag);
    if (!in_simd) check_raw_intrinsics(raw, code, diag);
    if (!in_math) check_raw_log_exp(code, diag);
    if (!is_rng) check_rng_engine(code, diag);
    if (!is_log) check_direct_io(code, diag);
    check_float_equality(code, diag);
    check_throw_in_parallel(code, parallel, diag);
    if (!in_util) check_raw_clock(code, diag);
    if (!in_data && !in_util) check_raw_mmap(code, diag);
  }
}

}  // namespace analyze
