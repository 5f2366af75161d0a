// apollo_cli: the full fact-finding tool as a command-line utility.
//
// Modes:
//   --mode simulate   simulate an event, write the raw stream + per-
//                     tweet grading labels under --dir, then ingest and
//                     analyze it from those files (proving the external
//                     path end to end); without --dir the files go to a
//                     fresh directory named by the process id under the
//                     system temp directory, so concurrent runs never
//                     share one;
//   --mode analyze    ingest an existing <dir>/tweets.jsonl (optionally
//                     with tweet_labels.csv for grading) and rank
//                     assertions; --dir is required.
//
// Ingestion never touches simulator internals: retweet parents are
// detected from "RT @name: body" texts, the dependency network is
// inferred from retweet behaviour, and tweets are clustered into
// assertions by token similarity — the same path crawled data takes.
//
//   ./apollo_cli --mode simulate --scenario Kirkuk --scale 0.2
//   ./apollo_cli --mode analyze --dir <event directory> --top 20
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "apollo/grading.h"
#include "apollo/pipeline.h"
#include "apollo/report.h"
#include "core/em_ext.h"
#include "estimators/registry.h"
#include "eval/table.h"
#include "twitter/builder.h"
#include "twitter/retweet_detect.h"
#include "twitter/tweet_io.h"
#include "util/cli.h"
#include "util/string_util.h"

namespace {

using namespace ss;

// Grades clusters by majority vote over their member tweets' labels —
// the per-tweet shape human grading takes in the paper's protocol.
std::vector<Label> grade_clusters(
    const std::vector<Tweet>& sorted_tweets,
    const ClusteringResult& clustering,
    const std::unordered_map<std::uint32_t, Label>& tweet_labels) {
  std::vector<std::array<std::size_t, 4>> votes(
      clustering.cluster_count, std::array<std::size_t, 4>{});
  for (std::size_t t = 0; t < sorted_tweets.size(); ++t) {
    auto it = tweet_labels.find(sorted_tweets[t].id);
    if (it == tweet_labels.end()) continue;
    ++votes[clustering.cluster_of[t]][static_cast<std::size_t>(
        it->second)];
  }
  std::vector<Label> labels(clustering.cluster_count, Label::kUnknown);
  for (std::size_t c = 0; c < votes.size(); ++c) {
    std::size_t best = 0;
    for (std::size_t l = 0; l < 4; ++l) {
      if (votes[c][l] > best) {
        best = votes[c][l];
        labels[c] = static_cast<Label>(l);
      }
    }
  }
  return labels;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ss;
  Cli cli("apollo_cli", "Fact-finding pipeline over raw tweet streams");
  auto& mode = cli.add_string("mode", "simulate", "simulate | analyze");
  auto& dir = cli.add_string(
      "dir", "",
      "event directory (tweets.jsonl, ...); simulate defaults to a "
      "fresh per-process temp directory");
  auto& scenario_name =
      cli.add_string("scenario", "Kirkuk", "scenario for --mode simulate");
  auto& scale = cli.add_double("scale", 0.2, "scenario scale factor");
  auto& seed_flag = cli.add_int("seed", 2015, "RNG seed");
  auto& algo = cli.add_string("estimator", "EM-Ext",
                              "estimator for the ranked report");
  auto& top_flag = cli.add_int("top", 15, "assertions to print");
  auto& grade_flag = cli.add_int("grade-top", 100,
                                 "top-k for the grading comparison");
  auto& report_flag =
      cli.add_flag("report", "also write <dir>/report.md");
  cli.parse(argc, argv);

  if (mode != "simulate" && mode != "analyze") {
    std::fprintf(stderr, "unknown --mode %s\n", mode.c_str());
    return 2;
  }
  if (dir.empty()) {
    if (mode == "analyze") {
      std::fprintf(stderr,
                   "apollo_cli: --mode analyze needs --dir <event "
                   "directory>\n\n%s",
                   cli.usage().c_str());
      return 2;
    }
    dir = (std::filesystem::temp_directory_path() /
           ("apollo_event." + std::to_string(::getpid())))
              .string();
  }

  std::string tweets_path = dir + "/tweets.jsonl";
  std::string labels_path = dir + "/tweet_labels.csv";

  if (mode == "simulate") {
    TwitterScenario scenario =
        scenario_by_name(scenario_name).scaled(scale);
    TwitterSimulation sim = simulate_twitter(
        scenario, static_cast<std::uint64_t>(seed_flag));
    std::filesystem::create_directories(dir);
    save_tweets(sim.tweets, tweets_path);
    save_tweet_labels(sim.tweets, labels_path);
    std::printf("wrote %zu tweets to %s (+ grading labels)\n",
                sim.tweets.size(), tweets_path.c_str());
  }

  // Ingest from files only.
  std::vector<Tweet> tweets = load_tweets(tweets_path);
  std::printf("\ningesting %zu tweets from %s\n", tweets.size(),
              tweets_path.c_str());
  BuiltDataset built = build_dataset_from_stream(tweets);

  // Re-derive the sorted order build_dataset_from_stream used, to align
  // per-tweet labels with cluster indices.
  std::sort(tweets.begin(), tweets.end(),
            [](const Tweet& a, const Tweet& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.id < b.id;
            });
  bool graded = std::filesystem::exists(labels_path);
  if (graded) {
    built.dataset.truth = grade_clusters(tweets, built.clustering,
                                         load_tweet_labels(labels_path));
  }

  DatasetSummary summary = built.dataset.summary();
  std::printf("assertions %zu | sources %zu | claims %zu (%zu original)\n",
              summary.assertions, summary.sources, summary.total_claims,
              summary.original_claims);

  print_banner(algo + ": most credible assertions");
  ApolloPipeline pipeline(algo);
  PipelineReport report =
      pipeline.analyze(built.dataset, static_cast<std::uint64_t>(seed_flag));
  TablePrinter table(graded
                         ? std::vector<std::string>{"rank", "belief",
                                                    "support", "grade"}
                         : std::vector<std::string>{"rank", "belief",
                                                    "support"});
  for (std::size_t r = 0;
       r < std::min<std::size_t>(top_flag, report.ranked.size()); ++r) {
    const RankedAssertion& ra = report.ranked[r];
    std::vector<std::string> row = {std::to_string(r + 1),
                                    format_double(ra.belief, 4),
                                    std::to_string(ra.support)};
    if (graded) row.push_back(label_name(ra.truth));
    table.add_row(row);
  }
  table.print();

  if (report_flag) {
    EmExtResult em_detail =
        EmExtEstimator().run_detailed(built.dataset,
                                      static_cast<std::uint64_t>(seed_flag));
    std::string md = render_markdown_report(built.dataset, report,
                                            em_detail);
    std::string report_path = dir + "/report.md";
    std::ofstream out(report_path);
    out << md;
    std::printf("\nwrote %s (%zu bytes)\n", report_path.c_str(),
                md.size());
  }

  if (graded) {
    print_banner("grading: all algorithms, top-" +
                 std::to_string(grade_flag));
    EmpiricalStudyResult study = run_empirical_protocol(
        built.dataset, estimator_names(),
        static_cast<std::size_t>(grade_flag),
        static_cast<std::uint64_t>(seed_flag));
    TablePrinter grades({"algorithm", "accuracy", "#true", "#false",
                         "#opinion"});
    for (const auto& [name, b] : study.per_algorithm) {
      grades.add_row({name, format_double(b.accuracy(), 3),
                      std::to_string(b.graded_true),
                      std::to_string(b.graded_false),
                      std::to_string(b.graded_opinion)});
    }
    grades.print();
  }
  return 0;
}
