// Tests for the semantic-analysis gate (docs/MODEL.md §15):
//  - tools/ss_analyze fires each checker on its seeded bad fixture with
//    the exact check id and file:line, and stays silent on the good
//    corpus;
//  - layering: the bad tree yields upward-include, undeclared-edge and
//    internal-header diagnostics; a real include cycle is reported; a
//    cyclic *declared* graph is refused outright; the DOT rendering of
//    the conforming tree matches its golden snapshot byte for byte;
//  - suppressions round-trip exactly like ss_lint's;
//  - the real src/ tree is clean against tools/analyze/layers.conf
//    (the invariant tools/check.sh leg 4 gates CI on), and injecting a
//    bad fixture into a copy of that tree makes the gate fail — the
//    end-to-end property the gate exists for.
//
// The analyzer binary path is injected by CMake as SS_ANALYZE_BIN; the
// real layer config as SS_ANALYZE_CONF; fixtures live under
// SS_FIXTURE_DIR/analyze/.

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

TEST(AnalyzeBadFixtures, EachCheckFiresAtItsSeededLines) {
  const BadCase cases[] = {
      {"bad/must_use.cpp", "must-use", {9, 12, 17, 19, 20, 21, 22}},
      {"bad/determinism.cpp", "unordered-reduction",
       {19, 23, 24, 27, 36}},
      {"bad/hot_loop.cpp", "hot-loop-alloc", {13, 14, 15, 23}},
      {"bad/suppress_bad.cpp", "bad-suppression", {6, 10}},
  };
  for (const BadCase& c : cases) {
    SCOPED_TRACE(c.file);
    AnalyzeRun run = run_analyze(fixture(c.file));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find(std::string("[") + c.check + "]"),
              std::string::npos)
        << run.output;
    for (int line : c.lines) {
      std::string anchor = std::string(c.file) + ":" +
                           std::to_string(line) + ":";
      EXPECT_NE(run.output.find(anchor), std::string::npos)
          << "missing " << anchor << "\n" << run.output;
    }
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
                            "hot-loop-alloc"}) {
    EXPECT_NE(run.output.find(check), std::string::npos) << check;
  }
}

TEST(AnalyzeCli, MissingInputIsAUsageError) {
  AnalyzeRun run = run_analyze(fixture("does_not_exist"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(AnalyzeTree, RealSourceTreeIsClean) {
  // The invariant tools/check.sh leg 4 gates CI on: the shipped src/
  // carries zero unsuppressed findings for all four checkers against
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

}  // namespace
