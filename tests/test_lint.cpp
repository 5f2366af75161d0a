// Tests for the static-analysis gate (docs/MODEL.md §11):
//  - tools/ss_lint fires each rule on its seeded bad fixture with the
//    exact rule id and file:line, and stays silent on the good corpus;
//  - suppressions round-trip: a reasoned allow() silences the rule, and
//    stripping the marker brings the diagnostic back;
//  - malformed suppressions are themselves diagnostics;
//  - the real src/ tree is clean (the same invariant tools/check.sh
//    gates CI on);
//  - --json emits one entry per diagnostic.
//
// The linter binary path is injected by CMake as SS_LINT_BIN; fixtures
// live under SS_FIXTURE_DIR/lint/. The clang -Wthread-safety leg is
// covered separately: a configure-time try_compile pair in
// tests/CMakeLists.txt plus lint_thread_safety_{good,bad} ctests when
// clang++ is available.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "temp_dir.h"

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

LintRun run_lint(const std::string& args) {
  std::string cmd = std::string(SS_LINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  LintRun result;
  if (!pipe) return result;
  char buf[4096];
  std::size_t n;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) {
    result.output.append(buf, n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& rel) {
  return std::string(SS_FIXTURE_DIR) + "/lint/" + rel;
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

struct BadCase {
  const char* file;
  const char* rule;
  int line;
};

TEST(LintBadFixtures, EachRuleFiresAtItsSeededLine) {
  const BadCase cases[] = {
      {"bad/r1_raw_log.cpp", "raw-log-exp", 6},
      {"bad/r2_rng_engine.cpp", "rng-engine", 7},
      {"bad/r3_direct_io.cpp", "direct-io", 7},
      {"bad/r4_float_equality.cpp", "float-equality", 5},
      {"bad/r5_throw_in_parallel.cpp", "throw-in-parallel", 8},
      {"bad/r6_banned_include.cpp", "banned-include", 3},
      {"bad/r6_todo_owner.cpp", "todo-owner", 4},
      {"bad/r7_raw_intrinsics.cpp", "raw-intrinsics", 3},
      {"bad/r8_raw_clock.cpp", "raw-clock", 8},
      {"bad/r9_raw_mmap.cpp", "raw-mmap", 7},
  };
  for (const BadCase& c : cases) {
    SCOPED_TRACE(c.file);
    LintRun run = run_lint(fixture(c.file));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find(std::string("[") + c.rule + "]"),
              std::string::npos)
        << run.output;
    // file:line prefix, e.g. ".../r1_raw_log.cpp:6:".
    std::string anchor =
        std::string(c.file) + ":" + std::to_string(c.line) + ":";
    EXPECT_NE(run.output.find(anchor), std::string::npos) << run.output;
  }
}

TEST(LintBadFixtures, SecondarySitesAlsoFire) {
  // r6_banned_include seeds a C-compat header after <iostream>.
  LintRun run = run_lint(fixture("bad/r6_banned_include.cpp"));
  EXPECT_NE(run.output.find("r6_banned_include.cpp:4:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("<math.h>"), std::string::npos) << run.output;
  // r6_todo_owner has an ownerless FIXME on line 6; the owned forms on
  // lines 5 and 7 must stay silent.
  run = run_lint(fixture("bad/r6_todo_owner.cpp"));
  EXPECT_NE(run.output.find("r6_todo_owner.cpp:6:"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("r6_todo_owner.cpp:5:"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("r6_todo_owner.cpp:7:"), std::string::npos)
      << run.output;
  // r7_raw_intrinsics seeds a __m128d token after the <immintrin.h>
  // include; both sites must be reported.
  run = run_lint(fixture("bad/r7_raw_intrinsics.cpp"));
  EXPECT_NE(run.output.find("r7_raw_intrinsics.cpp:7:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("__m128d"), std::string::npos) << run.output;
  // r8_raw_clock seeds a std::time(nullptr) read after the chrono
  // clock; both sites must be reported.
  run = run_lint(fixture("bad/r8_raw_clock.cpp"));
  EXPECT_NE(run.output.find("r8_raw_clock.cpp:11:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("time() read"), std::string::npos)
      << run.output;
  // r9_raw_mmap seeds a raw ::open() and a munmap() after the mmap();
  // all three sites must be reported.
  run = run_lint(fixture("bad/r9_raw_mmap.cpp"));
  EXPECT_NE(run.output.find("r9_raw_mmap.cpp:9:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("::open()"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("r9_raw_mmap.cpp:10:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("munmap()"), std::string::npos) << run.output;
  // r5_throw_in_parallel seeds a throw in a kernels::for_each_chunk body
  // and one in a kernels::tree_reduce leaf after the parallel_for one.
  run = run_lint(fixture("bad/r5_throw_in_parallel.cpp"));
  EXPECT_NE(run.output.find("r5_throw_in_parallel.cpp:14:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("r5_throw_in_parallel.cpp:20:"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(count_occurrences(run.output, "[throw-in-parallel]"), 3u)
      << run.output;
}

TEST(LintGoodFixtures, WholeCorpusScansClean) {
  LintRun run = run_lint(fixture("good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(LintSuppression, ReasonedAllowSilencesTheRule) {
  LintRun run = run_lint(fixture("good/suppressed.cpp"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintSuppression, StrippingTheMarkerBringsDiagnosticsBack) {
  // Round-trip: defuse the ss-lint markers (keep line numbers identical)
  // and the two raw-log-exp diagnostics must reappear.
  std::ifstream in(fixture("good/suppressed.cpp"));
  ASSERT_TRUE(in.is_open());
  std::stringstream body;
  body << in.rdbuf();
  std::string text = body.str();
  const std::string marker = "ss-lint:";
  std::size_t hits = 0;
  for (std::size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, at)) {
    text.replace(at, marker.size(), "ss-lint-x");
    ++hits;
  }
  ASSERT_EQ(hits, 2u) << "fixture should carry exactly two suppressions";

  ss::test::TempDir dir("lint_stripped");
  std::string tmp = dir.file("suppressed_stripped_lint_fixture.cpp");
  {
    std::ofstream out(tmp);
    ASSERT_TRUE(out.is_open());
    out << text;
  }
  LintRun run = run_lint(tmp);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_occurrences(run.output, "[raw-log-exp]"), 2u)
      << run.output;
}

TEST(LintSuppression, RawMmapAllowRequiresAReason) {
  // A reasoned allow(raw-mmap) silences the rule outside the exempt
  // dirs; dropping the reason turns it into a bad-suppression and the
  // raw-mmap diagnostic comes back — the written reason is load-bearing.
  const std::string reasoned =
      "void* grab(std::size_t size) {\n"
      "  // ss-lint: allow(raw-mmap): fixture exercising the escape hatch\n"
      "  return mmap(nullptr, size, 3, 1, -1, 0);\n"
      "}\n";
  ss::test::TempDir dir("lint_r9_allow");
  std::string tmp = dir.file("r9_allow_lint_fixture.cpp");
  {
    std::ofstream out(tmp);
    ASSERT_TRUE(out.is_open());
    out << reasoned;
  }
  LintRun run = run_lint(tmp);
  EXPECT_EQ(run.exit_code, 0) << run.output;

  {
    std::ofstream out(tmp);
    ASSERT_TRUE(out.is_open());
    out << "void* grab(std::size_t size) {\n"
           "  // ss-lint: allow(raw-mmap)\n"
           "  return mmap(nullptr, size, 3, 1, -1, 0);\n"
           "}\n";
  }
  run = run_lint(tmp);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[bad-suppression]"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("[raw-mmap]"), std::string::npos) << run.output;
}

TEST(LintSuppression, MalformedAllowIsItselfADiagnostic) {
  LintRun run = run_lint(fixture("bad/bad_suppression.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Missing reason and unknown rule each produce a bad-suppression, and
  // neither suppresses the underlying raw-log-exp.
  EXPECT_EQ(count_occurrences(run.output, "[bad-suppression]"), 2u)
      << run.output;
  EXPECT_EQ(count_occurrences(run.output, "[raw-log-exp]"), 2u)
      << run.output;
  EXPECT_NE(run.output.find("bad_suppression.cpp:11:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("bad_suppression.cpp:16:"), std::string::npos)
      << run.output;
}

TEST(LintJson, OneEntryPerDiagnostic) {
  LintRun run = run_lint("--json " + fixture("bad/r1_raw_log.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(run.output.rfind("{\"files_scanned\":1,", 0), 0u)
      << run.output;
  EXPECT_NE(run.output.find("\"rule\":\"raw-log-exp\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"line\":6"), std::string::npos) << run.output;
}

TEST(LintCli, ListRulesNamesEveryRule) {
  LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  for (const char* rule :
       {"raw-log-exp", "rng-engine", "direct-io", "float-equality",
        "throw-in-parallel", "banned-include", "todo-owner",
        "raw-intrinsics", "raw-clock", "raw-mmap", "bad-suppression"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos) << rule;
  }
}

TEST(LintCli, MissingInputIsAUsageError) {
  LintRun run = run_lint(fixture("does_not_exist"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(LintTree, RealSourceTreeIsClean) {
  // The same invariant tools/check.sh leg 1 gates CI on: the shipped
  // src/ carries no diagnostics, and every allow() in it has a reason
  // (a reasonless one would surface here as bad-suppression).
  LintRun run = run_lint(std::string(SS_REPO_SRC_DIR));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
