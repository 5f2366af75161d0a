// Integration tests: multi-module flows that mirror how the benches and
// examples exercise the library end to end.
#include <gtest/gtest.h>

#include "apollo/grading.h"
#include "bounds/dataset_bound.h"
#include "core/em_ext.h"
#include "data/io.h"
#include "estimators/registry.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "simgen/parametric_gen.h"
#include "simgen/procedural_gen.h"
#include "temp_dir.h"
#include "twitter/builder.h"

namespace ss {
namespace {

TEST(Integration, EstimatorsVsBoundOrdering) {
  // The fundamental contract of Section III: no estimator beats the
  // bound on average. Averaged over repetitions, every estimator's
  // accuracy must stay below the optimal accuracy (1 - Err), with the
  // exact bound as the reference at both sizes.
  const std::vector<std::string> names = estimator_names();
  for (std::size_t n : {20u, 30u}) {
    auto summary = run_repetitions(12, 2024, [&](std::size_t, Rng& rng) {
      SimKnobs knobs = SimKnobs::paper_defaults(n, 40);
      SimInstance inst = generate_parametric(knobs, rng);
      MetricRow row;
      row["optimal"] =
          exact_dataset_bound(inst.dataset, inst.true_params)
              .bound.optimal_accuracy();
      for (const std::string& name : names) {
        row[name] = classify(inst.dataset,
                             make_estimator(name)->run(inst.dataset, 1))
                        .accuracy();
      }
      return row;
    });
    for (const std::string& name : names) {
      EXPECT_GT(summary["optimal"].mean(), summary[name].mean() - 0.01)
          << name << ", n = " << n;
    }
    // And EM-Ext should be meaningfully better than chance.
    EXPECT_GT(summary["EM-Ext"].mean(), 0.6) << "n = " << n;
  }
}

TEST(Integration, TwitterPipelinePersistsAndReloads) {
  TwitterScenario scenario = scenario_by_name("LA Marathon").scaled(0.05);
  BuiltDataset built = make_twitter_dataset(scenario, 3);

  test::TempDir tmp("integration_twitter");
  std::string dir = tmp.file("dataset");
  save_dataset(built.dataset, dir);
  Dataset reloaded = load_dataset(dir);

  EstimateResult original = EmExtEstimator().run(built.dataset, 5);
  EstimateResult reran = EmExtEstimator().run(reloaded, 5);
  ASSERT_EQ(original.belief.size(), reran.belief.size());
  for (std::size_t j = 0; j < original.belief.size(); ++j) {
    ASSERT_NEAR(original.belief[j], reran.belief[j], 1e-12);
  }
}

TEST(Integration, ProceduralAndParametricAgreeOnRanking) {
  // The two generators model the same process at different fidelity;
  // the dependency-aware estimator should beat the dependency-blind EM
  // under both when dependent claims mislead (low p_depT). The literal
  // Section-V-A pool process dilutes per-claim informativeness by the
  // pool-size ratio (DESIGN.md §5), so the procedural run uses a smaller
  // true pool (d < 0.5) to stay in an informative regime.
  auto run_generator = [&](bool procedural) {
    SimKnobs knobs = SimKnobs::paper_defaults(40, 50);
    knobs.p_dep_true = {0.15, 0.25};  // dependent claims skew false
    knobs.p_dep = {0.5, 0.7};
    if (procedural) {
      knobs.d = {0.35, 0.45};
      knobs.p_indep_true = {0.75, 0.85};
    }
    double ext = 0.0;
    double blind = 0.0;
    Rng rng(2025 + (procedural ? 1 : 0));
    for (int rep = 0; rep < 8; ++rep) {
      SimInstance inst = procedural ? generate_procedural(knobs, rng)
                                    : generate_parametric(knobs, rng);
      ext += classify(inst.dataset,
                      make_estimator("EM-Ext")->run(inst.dataset, 1))
                 .accuracy();
      blind += classify(inst.dataset,
                        make_estimator("EM")->run(inst.dataset, 1))
                   .accuracy();
    }
    return std::make_pair(ext / 8, blind / 8);
  };
  auto [param_ext, param_blind] = run_generator(false);
  auto [proc_ext, proc_blind] = run_generator(true);
  EXPECT_GT(param_ext, param_blind);
  EXPECT_GT(proc_ext, proc_blind);
}

TEST(Integration, GradingProtocolOnAllSevenAlgorithms) {
  TwitterScenario scenario = scenario_by_name("Superbug").scaled(0.06);
  BuiltDataset built = make_twitter_dataset(scenario, 8);
  EmpiricalStudyResult study =
      run_empirical_protocol(built.dataset, estimator_names(), 30, 1);
  ASSERT_EQ(study.per_algorithm.size(), 7u);
  for (const auto& [name, breakdown] : study.per_algorithm) {
    EXPECT_EQ(breakdown.total(), 30u) << name;
  }
}

TEST(Integration, BoundDecreasesWithMoreSources) {
  // Paper Fig. 3/7 macro-trend: more (somewhat informative) sources can
  // only help the optimal estimator.
  SimKnobs base = SimKnobs::paper_defaults(8, 30);
  double prev = 1.0;
  for (std::size_t n : {8u, 16u, 24u}) {
    SimKnobs knobs = SimKnobs::paper_defaults(n, 30);
    StreamingStats err;
    Rng rng(4 + n);
    for (int rep = 0; rep < 8; ++rep) {
      SimInstance inst = generate_parametric(knobs, rng);
      err.add(exact_dataset_bound(inst.dataset, inst.true_params)
                  .bound.error);
    }
    EXPECT_LT(err.mean(), prev + 0.02) << "n = " << n;
    prev = err.mean();
  }
  (void)base;
}

}  // namespace
}  // namespace ss
