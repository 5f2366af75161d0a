// Tests for the Apollo pipeline and the empirical grading protocol,
// plus the eval-layer metrics and harness utilities they rest on.
#include <gtest/gtest.h>

#include "apollo/grading.h"
#include "apollo/pipeline.h"
#include "apollo/report.h"
#include "core/em_ext.h"
#include "estimators/registry.h"
#include "eval/json.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "simgen/parametric_gen.h"
#include "twitter/builder.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

Dataset labelled_dataset() {
  std::vector<Claim> claims = {
      {0, 0, 0.0}, {1, 0, 0.0}, {2, 0, 0.0},  // strong support
      {0, 1, 0.0},                            // weak support
      {3, 2, 0.0}, {1, 2, 0.0},               // medium support
  };
  Dataset d;
  d.claims = SourceClaimMatrix(4, 4, claims);
  d.dependency = DependencyIndicators::from_cells(4, 4, {});
  d.truth = {Label::kTrue, Label::kFalse, Label::kOpinion, Label::kTrue};
  return d;
}

TEST(Metrics, ClassifyCountsAndRates) {
  Dataset d = labelled_dataset();
  EstimateResult est;
  est.belief = {0.9, 0.7, 0.2, 0.3};  // says: T T F F
  est.probabilistic = true;
  ClassificationMetrics m = classify(d, est);
  // Truth: T F Opinion(≠true) T
  EXPECT_EQ(m.evaluated, 4u);
  EXPECT_EQ(m.true_positives, 1u);   // assertion 0
  EXPECT_EQ(m.false_positives, 1u);  // assertion 1
  EXPECT_EQ(m.true_negatives, 1u);   // assertion 2 (opinion, said false)
  EXPECT_EQ(m.false_negatives, 1u);  // assertion 3
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(m.false_positive_rate(), 0.25);
  EXPECT_DOUBLE_EQ(m.false_negative_rate(), 0.25);
  EXPECT_DOUBLE_EQ(m.accuracy() + m.false_positive_rate() +
                       m.false_negative_rate(),
                   1.0);
}

TEST(Metrics, UnknownLabelsExcluded) {
  Dataset d = labelled_dataset();
  d.truth[1] = Label::kUnknown;
  EstimateResult est;
  est.belief = {0.9, 0.7, 0.2, 0.3};
  ClassificationMetrics m = classify(d, est);
  EXPECT_EQ(m.evaluated, 3u);
}

TEST(Metrics, ClassifyRequiresTruth) {
  Dataset d = labelled_dataset();
  d.truth.clear();
  EstimateResult est;
  est.belief = {0.9, 0.7, 0.2, 0.3};
  EXPECT_THROW(classify(d, est), std::invalid_argument);
}

TEST(Metrics, TopKTrueFraction) {
  Dataset d = labelled_dataset();
  EstimateResult est;
  est.belief = {0.9, 0.8, 0.7, 0.6};  // ranking: 0, 1, 2, 3
  EXPECT_DOUBLE_EQ(top_k_true_fraction(d, est, 1), 1.0);  // {T}
  EXPECT_DOUBLE_EQ(top_k_true_fraction(d, est, 2), 0.5);  // {T, F}
  EXPECT_DOUBLE_EQ(top_k_true_fraction(d, est, 4), 0.5);  // {T,F,O,T}
  // k beyond m is capped.
  EXPECT_DOUBLE_EQ(top_k_true_fraction(d, est, 100), 0.5);
}

TEST(Pipeline, RankedOutputSortedWithMetadata) {
  Dataset d = labelled_dataset();
  ApolloPipeline pipeline("Voting");
  PipelineReport report = pipeline.analyze(d, 1);
  EXPECT_EQ(report.estimator, "Voting");
  ASSERT_EQ(report.ranked.size(), 4u);
  for (std::size_t r = 1; r < report.ranked.size(); ++r) {
    EXPECT_GE(report.ranked[r - 1].belief, report.ranked[r].belief);
  }
  EXPECT_EQ(report.ranked[0].assertion, 0u);  // support 3
  EXPECT_EQ(report.ranked[0].support, 3u);
  EXPECT_EQ(report.ranked[0].truth, Label::kTrue);
  EXPECT_EQ(report.top(2).size(), 2u);
}

TEST(Pipeline, WorksWithEveryRegisteredEstimator) {
  Rng rng(3);
  SimKnobs knobs = SimKnobs::paper_defaults(20, 25);
  SimInstance inst = generate_parametric(knobs, rng);
  for (const std::string& name : estimator_names()) {
    ApolloPipeline pipeline(name);
    PipelineReport report = pipeline.analyze(inst.dataset, 1);
    EXPECT_EQ(report.ranked.size(), 25u) << name;
  }
}

TEST(Pipeline, EndToEndFromSimulation) {
  TwitterScenario scenario = scenario_by_name("Superbug").scaled(0.04);
  TwitterSimulation sim = simulate_twitter(scenario, 21);
  ApolloPipeline pipeline("EM-Ext");
  PipelineReport report = pipeline.analyze(sim, 1);
  EXPECT_GT(report.ranked.size(), 0u);
}

TEST(Grading, ProtocolScoresTopK) {
  Dataset d = labelled_dataset();
  EmpiricalStudyResult study =
      run_empirical_protocol(d, {"Voting", "Sums"}, 2, 1);
  ASSERT_EQ(study.per_algorithm.size(), 2u);
  EXPECT_GT(study.pool_size, 0u);
  for (const auto& [name, breakdown] : study.per_algorithm) {
    EXPECT_EQ(breakdown.total(), 2u) << name;
    EXPECT_GE(breakdown.accuracy(), 0.0);
    EXPECT_LE(breakdown.accuracy(), 1.0);
  }
}

TEST(Grading, RequiresGroundTruth) {
  Dataset d = labelled_dataset();
  d.truth.clear();
  EXPECT_THROW(run_empirical_protocol(d, {"Voting"}, 2, 1),
               std::invalid_argument);
}

TEST(Grading, EmExtBeatsVotingOnRumourHeavyEvent) {
  // A rumour-heavy event with strong cascades: voting credits every
  // retweet, EM-Ext discounts dependent claims. The dependency-aware
  // estimator must surface more confirmed-true assertions in its top-k.
  TwitterScenario scenario = scenario_by_name("Ukraine").scaled(0.08);
  scenario.retweet_rate *= 3.0;  // amplify the cascade failure mode
  BuiltDataset built = make_twitter_dataset(scenario, 99);
  EmpiricalStudyResult study = run_empirical_protocol(
      built.dataset, {"EM-Ext", "Voting"}, 50, 1);
  double em_ext = study.per_algorithm[0].second.accuracy();
  double voting = study.per_algorithm[1].second.accuracy();
  EXPECT_GT(em_ext, voting);
}

TEST(Report, RendersAllSections) {
  Rng rng(51);
  SimKnobs knobs = SimKnobs::paper_defaults(25, 30);
  SimInstance inst = generate_parametric(knobs, rng);
  ApolloPipeline pipeline("EM-Ext");
  PipelineReport pr = pipeline.analyze(inst.dataset, 1);
  EmExtResult em = EmExtEstimator().run_detailed(inst.dataset, 1);
  std::string md = render_markdown_report(inst.dataset, pr, em);
  EXPECT_NE(md.find("# Fact-finding report"), std::string::npos);
  EXPECT_NE(md.find("Most credible assertions"), std::string::npos);
  EXPECT_NE(md.find("Suspected rumours"), std::string::npos);
  EXPECT_NE(md.find("Most reliable sources"), std::string::npos);
  // Graded dataset: the grade column appears.
  EXPECT_NE(md.find("| grade |"), std::string::npos);
}

TEST(Report, UngradedOmitsGradeColumn) {
  Rng rng(52);
  SimKnobs knobs = SimKnobs::paper_defaults(20, 20);
  SimInstance inst = generate_parametric(knobs, rng);
  inst.dataset.truth.clear();
  ApolloPipeline pipeline("Voting");
  PipelineReport pr = pipeline.analyze(inst.dataset, 1);
  EmExtResult em = EmExtEstimator().run_detailed(inst.dataset, 1);
  std::string md = render_markdown_report(inst.dataset, pr, em);
  EXPECT_EQ(md.find("| grade |"), std::string::npos);
}

TEST(Runner, AggregatesDeterministically) {
  auto body = [](std::size_t rep, Rng& rng) {
    MetricRow row;
    row["value"] = static_cast<double>(rep) + rng.uniform() * 0.0;
    return row;
  };
  ThreadPool pool4(4), pool1(1);
  MetricSummary a = run_repetitions(10, 42, body, &pool4);
  MetricSummary b = run_repetitions(10, 42, body, &pool1);
  EXPECT_DOUBLE_EQ(a["value"].mean(), b["value"].mean());
  EXPECT_EQ(a["value"].count(), 10u);
  EXPECT_DOUBLE_EQ(a["value"].mean(), 4.5);
}

TEST(Runner, RepetitionRngsIndependent) {
  auto body = [](std::size_t, Rng& rng) {
    MetricRow row;
    row["u"] = rng.uniform();
    return row;
  };
  ThreadPool pool8(8);
  MetricSummary s = run_repetitions(200, 7, body, &pool8);
  // 200 independent uniforms: mean near 0.5, nonzero spread.
  EXPECT_NEAR(s["u"].mean(), 0.5, 0.08);
  EXPECT_GT(s["u"].stddev(), 0.1);
}

TEST(Runner, BenchRepetitionsHonoursEnv) {
  unsetenv("SS_REPS");
  unsetenv("SS_FAST");
  EXPECT_EQ(bench_repetitions(60, 15), 60u);
  setenv("SS_FAST", "1", 1);
  EXPECT_EQ(bench_repetitions(60, 15), 15u);
  setenv("SS_REPS", "7", 1);
  EXPECT_EQ(bench_repetitions(60, 15), 7u);  // SS_REPS wins
  unsetenv("SS_REPS");
  unsetenv("SS_FAST");
}

TEST(Table, RendersAlignedRows) {
  TablePrinter table({"x", "value"});
  table.add_row(std::vector<std::string>{"1", "alpha"});
  table.add_row(std::vector<double>{2.0, 3.14159}, 2);
  std::string out = table.to_string();
  EXPECT_NE(out.find("x"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_THROW(table.add_row({"too", "many", "cells"}),
               std::invalid_argument);
}

TEST(Json, BuildsAndSerializes) {
  JsonValue root = JsonValue::object();
  root["name"] = "fig7";
  root["count"] = static_cast<std::size_t>(3);
  root["ok"] = true;
  JsonValue rows = JsonValue::array();
  JsonValue row = JsonValue::object();
  row["x"] = 1.5;
  rows.push_back(std::move(row));
  root["rows"] = std::move(rows);
  std::string compact = root.dump(0);
  EXPECT_EQ(compact,
            "{\"name\":\"fig7\",\"count\":3,\"ok\":true,"
            "\"rows\":[{\"x\":1.5}]}");
}

TEST(Json, EscapesAndTypes) {
  JsonValue v = JsonValue::object();
  v["s"] = "a\"b\n";
  EXPECT_EQ(v.dump(0), "{\"s\":\"a\\\"b\\n\"}");
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue());
  EXPECT_EQ(arr.dump(0), "[null]");
}

}  // namespace
}  // namespace ss
