// Tests for the source analyzer, tools/ss_analyze (docs/MODEL.md §11,
// §15):
//  - every line rule and every whole-tree check fires on its seeded bad
//    fixture with the exact id and file:line, and both good corpora
//    scan clean;
//  - layering: the bad tree yields upward-include, undeclared-edge and
//    internal-header diagnostics; a real include cycle is reported; a
//    cyclic *declared* graph is refused outright; the DOT rendering of
//    the conforming tree matches its golden snapshot byte for byte;
//  - suppressions round-trip: a reasoned allow() silences the finding,
//    stripping the marker brings it back, and a malformed allow, or one
//    of a check that ran and found nothing on its line, is itself a
//    diagnostic;
//  - the real src/ tree is clean against tools/analyze/layers.conf
//    (the invariant tools/check.sh gates CI on) and without a config,
//    a missing input is a usage error, and injecting a bad
//    fixture into a copy of that tree makes the gate fail — the
//    end-to-end property the gate exists for.
//
// The analyzer binary path is injected by CMake as SS_ANALYZE_BIN; the
// real layer config as SS_ANALYZE_CONF. Fixtures live under
// SS_FIXTURE_DIR: analyze/ for the whole-tree checks, lint/ for the
// line rules. The clang -Wthread-safety leg is covered separately: a
// configure-time try_compile pair in tests/CMakeLists.txt plus
// lint_thread_safety_{good,bad} ctests when clang++ is available.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "temp_dir.h"

namespace {

namespace fs = std::filesystem;

struct AnalyzeRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

AnalyzeRun run_analyze(const std::string& args) {
  std::string cmd = std::string(SS_ANALYZE_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  AnalyzeRun result;
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
  return std::string(SS_FIXTURE_DIR) + "/analyze/" + rel;
}

std::string lint_fixture(const std::string& rel) {
  return std::string(SS_FIXTURE_DIR) + "/lint/" + rel;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream body;
  body << in.rdbuf();
  return body.str();
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
  const char* check;
  std::vector<int> lines;
};

// Runs the analyzer on one bad fixture: exit 1, the check id, and a
// file:line anchor (e.g. ".../r1_raw_log.cpp:6:") at every seeded line.
void expect_fires_at_seeded_lines(const std::string& path,
                                  const BadCase& c) {
  SCOPED_TRACE(c.file);
  AnalyzeRun run = run_analyze(path);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find(std::string("[") + c.check + "]"),
            std::string::npos)
      << run.output;
  for (int line : c.lines) {
    std::string anchor =
        std::string(c.file) + ":" + std::to_string(line) + ":";
    EXPECT_NE(run.output.find(anchor), std::string::npos)
        << "missing " << anchor << "\n" << run.output;
  }
}

TEST(AnalyzeBadFixtures, EachCheckFiresAtItsSeededLines) {
  const BadCase cases[] = {
      {"bad/must_use.cpp", "must-use", {9, 12, 17, 19, 20, 21, 22}},
      {"bad/determinism.cpp", "unordered-reduction",
       {19, 23, 24, 27, 36}},
      {"bad/hot_loop.cpp", "hot-loop-alloc", {13, 14, 15, 23}},
      {"bad/suppress_bad.cpp", "bad-suppression", {6, 10}},
      {"bad/unused_suppression.cpp", "unused-suppression", {9, 12, 13}},
  };
  for (const BadCase& c : cases) {
    expect_fires_at_seeded_lines(fixture(c.file), c);
  }
}

TEST(AnalyzeBadFixtures, SanctionedShapesInBadFilesStaySilent) {
  // bad/must_use.cpp line 25 is a (void)-cast: an explicit discard.
  AnalyzeRun run = run_analyze(fixture("bad/must_use.cpp"));
  EXPECT_EQ(run.output.find("must_use.cpp:25:"), std::string::npos)
      << run.output;
  // bad/hot_loop.cpp line 20 is a resize *outside* the loop.
  run = run_analyze(fixture("bad/hot_loop.cpp"));
  EXPECT_EQ(run.output.find("hot_loop.cpp:20:"), std::string::npos)
      << run.output;
}

TEST(AnalyzeLayering, BadTreeYieldsEachEdgeDiagnostic) {
  AnalyzeRun run = run_analyze("--config " +
                               fixture("bad/layertree/layers.conf") + " " +
                               fixture("bad/layertree"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("alpha/up.h:2:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("upward include"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("gamma/g.cpp:3:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("not declared in layers.conf"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("gamma/g.cpp:4:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("internal header"), std::string::npos)
      << run.output;
  // The conforming edges must stay silent.
  EXPECT_EQ(run.output.find("beta/b.h:"), std::string::npos) << run.output;
}

TEST(AnalyzeLayering, RealIncludeCycleIsReported) {
  AnalyzeRun run = run_analyze("--config " +
                               fixture("bad/cycletree/layers.conf") + " " +
                               fixture("bad/cycletree"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("module include cycle"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("ping -> pong -> ping"), std::string::npos)
      << run.output;
}

TEST(AnalyzeLayering, CyclicDeclaredGraphIsRefused) {
  AnalyzeRun run = run_analyze("--config " + fixture("bad/cyclic.conf") +
                               " " + fixture("good/layertree"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("declared layer graph has a cycle"),
            std::string::npos)
      << run.output;
}

TEST(AnalyzeLayering, GoldenDotSnapshot) {
  ss::test::TempDir dir("analyze_layertree");
  std::string dot = dir.file("analyze_layertree.dot");
  AnalyzeRun run = run_analyze("--config " +
                               fixture("good/layertree/layers.conf") +
                               " --dot " + dot + " " +
                               fixture("good/layertree"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(slurp(dot), slurp(fixture("golden/layertree.dot")));
}

TEST(AnalyzeGoodFixtures, WholeCorpusScansClean) {
  AnalyzeRun run = run_analyze(fixture("good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(AnalyzeSuppression, ReasonedAllowSilencesTheCheck) {
  AnalyzeRun run = run_analyze(fixture("good/suppressed.cpp"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(AnalyzeSuppression, StrippingTheMarkerBringsDiagnosticsBack) {
  std::string text = slurp(fixture("good/suppressed.cpp"));
  const std::string marker = "ss-analyze:";
  std::size_t hits = 0;
  for (std::size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, at)) {
    text.replace(at, marker.size(), "ss-analyze-x");
    ++hits;
  }
  ASSERT_EQ(hits, 1u) << "fixture should carry exactly one suppression";

  ss::test::TempDir dir("analyze_stripped");
  std::string tmp = dir.file("suppressed_stripped_analyze_fixture.cpp");
  {
    std::ofstream out(tmp);
    ASSERT_TRUE(out.is_open());
    out << text;
  }
  AnalyzeRun run = run_analyze(tmp);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_occurrences(run.output, "[hot-loop-alloc]"), 1u)
      << run.output;
}

TEST(AnalyzeSuppression, AllowThatSilencesNothingIsReported) {
  // Three stale allows, each reported at its marker; the one allow that
  // still silences its finding (line 14's raw-log-exp) stays quiet.
  AnalyzeRun run = run_analyze(fixture("bad/unused_suppression.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_occurrences(run.output, "[unused-suppression]"), 3u)
      << run.output;
  EXPECT_EQ(run.output.find("[raw-log-exp]"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("allow(float-equality) silences no "
                            "float-equality diagnostic on line 14"),
            std::string::npos)
      << run.output;

  // allow(layering) is judged only when layering ran, under --config.
  run = run_analyze(fixture("good/suppression_used.cpp"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  run = run_analyze("--config " + std::string(SS_ANALYZE_CONF) + " " +
                    fixture("good/suppression_used.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("suppression_used.cpp:8: [unused-suppression] "
                            "allow(layering)"),
            std::string::npos)
      << run.output;

  // Like bad-suppression, unused-suppression cannot itself be allowed.
  ss::test::TempDir dir("analyze_unused");
  std::string tmp = dir.file("allow_unused_analyze_fixture.cpp");
  {
    std::ofstream out(tmp);
    ASSERT_TRUE(out.is_open());
    out << "// ss-analyze: allow(unused-suppression): not allowable\n"
           "int x = 0;\n";
  }
  run = run_analyze(tmp);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[bad-suppression] unknown rule "
                            "`unused-suppression`"),
            std::string::npos)
      << run.output;
}

TEST(AnalyzeJson, OneEntryPerDiagnostic) {
  AnalyzeRun run = run_analyze("--json " + fixture("bad/hot_loop.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(run.output.rfind("{\"files_scanned\":1,", 0), 0u)
      << run.output;
  EXPECT_NE(run.output.find("\"rule\":\"hot-loop-alloc\""),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"line\":13"), std::string::npos)
      << run.output;
}

TEST(AnalyzeCli, ListChecksNamesEveryCheck) {
  AnalyzeRun run = run_analyze("--list-checks");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  for (const char* check : {"layering", "must-use", "unordered-reduction",
                            "hot-loop-alloc", "unused-suppression"}) {
    EXPECT_NE(run.output.find(check), std::string::npos) << check;
  }
}

TEST(AnalyzeCli, MissingInputIsAUsageError) {
  AnalyzeRun run = run_analyze(fixture("does_not_exist"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(AnalyzeTree, RealSourceTreeIsClean) {
  // The invariant tools/check.sh gates CI on: the shipped src/ carries
  // zero unsuppressed findings for every line rule and check against
  // the real layer config, and every allow() in it has a reason.
  AnalyzeRun run = run_analyze("--config " + std::string(SS_ANALYZE_CONF) +
                               " " + std::string(SS_REPO_SRC_DIR));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(AnalyzeTree, InjectedBadFixtureFailsTheGate) {
  // End-to-end acceptance: copy the real src/ tree, drop one bad
  // fixture into it, and the same invocation check.sh uses must flip
  // to a non-zero exit naming the seeded check.
  ss::test::TempDir dir("analyze_injected");
  fs::path tmp = fs::path(dir.path()) / "src";
  fs::copy(SS_REPO_SRC_DIR, tmp, fs::copy_options::recursive);
  fs::copy_file(fixture("bad/hot_loop.cpp"),
                tmp / "core" / "injected_hot_fixture.cpp");
  AnalyzeRun run = run_analyze("--config " + std::string(SS_ANALYZE_CONF) +
                               " " + tmp.string());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[hot-loop-alloc]"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("injected_hot_fixture.cpp:13:"),
            std::string::npos)
      << run.output;
}

// --- the line rules (docs/MODEL.md §11), on tests/fixtures/lint/ ---

TEST(LintBadFixtures, EachRuleFiresAtItsSeededLine) {
  const BadCase cases[] = {
      {"bad/r1_raw_log.cpp", "raw-log-exp", {6}},
      {"bad/r2_rng_engine.cpp", "rng-engine", {7}},
      {"bad/r3_direct_io.cpp", "direct-io", {7}},
      {"bad/r4_float_equality.cpp", "float-equality", {5}},
      {"bad/r5_throw_in_parallel.cpp", "throw-in-parallel", {8}},
      {"bad/r6_banned_include.cpp", "banned-include", {3}},
      {"bad/r6_todo_owner.cpp", "todo-owner", {4}},
      {"bad/r7_raw_intrinsics.cpp", "raw-intrinsics", {3}},
      {"bad/r8_raw_clock.cpp", "raw-clock", {8}},
      {"bad/r9_raw_mmap.cpp", "raw-mmap", {7}},
  };
  for (const BadCase& c : cases) {
    expect_fires_at_seeded_lines(lint_fixture(c.file), c);
  }
}

TEST(LintBadFixtures, SecondarySitesAlsoFire) {
  // r6_banned_include seeds a C-compat header after <iostream>.
  AnalyzeRun run = run_analyze(lint_fixture("bad/r6_banned_include.cpp"));
  EXPECT_NE(run.output.find("r6_banned_include.cpp:4:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("<math.h>"), std::string::npos) << run.output;
  // r6_todo_owner has an ownerless FIXME on line 6; the owned forms on
  // lines 5 and 7 must stay silent.
  run = run_analyze(lint_fixture("bad/r6_todo_owner.cpp"));
  EXPECT_NE(run.output.find("r6_todo_owner.cpp:6:"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("r6_todo_owner.cpp:5:"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("r6_todo_owner.cpp:7:"), std::string::npos)
      << run.output;
  // r7_raw_intrinsics seeds a __m128d token after the <immintrin.h>
  // include; both sites must be reported.
  run = run_analyze(lint_fixture("bad/r7_raw_intrinsics.cpp"));
  EXPECT_NE(run.output.find("r7_raw_intrinsics.cpp:7:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("__m128d"), std::string::npos) << run.output;
  // r8_raw_clock seeds a std::time(nullptr) read after the chrono
  // clock; both sites must be reported.
  run = run_analyze(lint_fixture("bad/r8_raw_clock.cpp"));
  EXPECT_NE(run.output.find("r8_raw_clock.cpp:11:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("time() read"), std::string::npos)
      << run.output;
  // r9_raw_mmap seeds a raw ::open() and a munmap() after the mmap();
  // all three sites must be reported.
  run = run_analyze(lint_fixture("bad/r9_raw_mmap.cpp"));
  EXPECT_NE(run.output.find("r9_raw_mmap.cpp:9:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("::open()"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("r9_raw_mmap.cpp:10:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("munmap()"), std::string::npos) << run.output;
  // r5_throw_in_parallel seeds a throw in a kernels::for_each_chunk body
  // and one in a kernels::tree_reduce leaf after the parallel_for one.
  run = run_analyze(lint_fixture("bad/r5_throw_in_parallel.cpp"));
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
  AnalyzeRun run = run_analyze(lint_fixture("good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(LintSuppression, ReasonedAllowSilencesTheRule) {
  AnalyzeRun run = run_analyze(lint_fixture("good/suppressed.cpp"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintSuppression, StrippingTheMarkerBringsDiagnosticsBack) {
  // Round-trip: defuse the markers (keep line numbers identical) and
  // the two raw-log-exp diagnostics must reappear.
  std::string text = slurp(lint_fixture("good/suppressed.cpp"));
  const std::string marker = "ss-analyze:";
  std::size_t hits = 0;
  for (std::size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, at)) {
    text.replace(at, marker.size(), "ss-analyze-x");
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
  AnalyzeRun run = run_analyze(tmp);
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
      "  // ss-analyze: allow(raw-mmap): fixture exercising the escape "
      "hatch\n"
      "  return mmap(nullptr, size, 3, 1, -1, 0);\n"
      "}\n";
  ss::test::TempDir dir("lint_r9_allow");
  std::string tmp = dir.file("r9_allow_lint_fixture.cpp");
  {
    std::ofstream out(tmp);
    ASSERT_TRUE(out.is_open());
    out << reasoned;
  }
  AnalyzeRun run = run_analyze(tmp);
  EXPECT_EQ(run.exit_code, 0) << run.output;

  {
    std::ofstream out(tmp);
    ASSERT_TRUE(out.is_open());
    out << "void* grab(std::size_t size) {\n"
           "  // ss-analyze: allow(raw-mmap)\n"
           "  return mmap(nullptr, size, 3, 1, -1, 0);\n"
           "}\n";
  }
  run = run_analyze(tmp);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[bad-suppression]"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("[raw-mmap]"), std::string::npos) << run.output;
}

TEST(LintSuppression, MalformedAllowIsItselfADiagnostic) {
  AnalyzeRun run = run_analyze(lint_fixture("bad/bad_suppression.cpp"));
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
  AnalyzeRun run =
      run_analyze("--json " + lint_fixture("bad/r1_raw_log.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(run.output.rfind("{\"files_scanned\":1,", 0), 0u)
      << run.output;
  EXPECT_NE(run.output.find("\"rule\":\"raw-log-exp\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"line\":6"), std::string::npos) << run.output;
}

TEST(LintCli, ListRulesNamesEveryRule) {
  AnalyzeRun run = run_analyze("--list-checks");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  for (const char* rule :
       {"raw-log-exp", "rng-engine", "direct-io", "float-equality",
        "throw-in-parallel", "banned-include", "todo-owner",
        "raw-intrinsics", "raw-clock", "raw-mmap", "bad-suppression"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos) << rule;
  }
}

TEST(LintCli, MissingInputIsAUsageError) {
  // A missing input next to a corpus with findings is still a usage
  // error: exit 2, not 1, and no diagnostics from the inputs that exist.
  AnalyzeRun run = run_analyze(lint_fixture("bad") + " " +
                               lint_fixture("does_not_exist"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_EQ(run.output.find("[raw-log-exp]"), std::string::npos)
      << run.output;
}

TEST(LintTree, RealSourceTreeIsClean) {
  // Without --config the analyzer runs the line rules and the
  // config-free checks only: the shipped src/ must be clean under them
  // too, and every allow() in it has a reason (a reasonless one would
  // surface here as bad-suppression).
  AnalyzeRun run = run_analyze(std::string(SS_REPO_SRC_DIR));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
