// Unit tests for the math substrate: log-space probability arithmetic,
// streaming statistics, the small dense matrix and vector helpers, and
// convergence detection.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "math/convergence.h"
#include "math/discrete_sampler.h"
#include "math/logprob.h"
#include "math/matrix.h"
#include "math/stats.h"
#include "util/rng.h"

namespace ss {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LogProb, SafeLogZeroIsNegInf) {
  EXPECT_EQ(safe_log(0.0), -kInf);
  EXPECT_DOUBLE_EQ(safe_log(1.0), 0.0);
}

TEST(LogProb, LogSumExpPair) {
  EXPECT_NEAR(logsumexp(std::log(0.25), std::log(0.75)), 0.0, 1e-12);
  EXPECT_NEAR(logsumexp(std::log(2.0), std::log(3.0)), std::log(5.0),
              1e-12);
}

TEST(LogProb, LogSumExpHandlesNegInf) {
  EXPECT_DOUBLE_EQ(logsumexp(-kInf, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(logsumexp(1.5, -kInf), 1.5);
  EXPECT_EQ(logsumexp(-kInf, -kInf), -kInf);
}

TEST(LogProb, LogSumExpExtremeMagnitudes) {
  // exp(-1000) alone underflows; logsumexp must still be exact.
  EXPECT_NEAR(logsumexp(-1000.0, -1000.0), -1000.0 + std::log(2.0),
              1e-12);
  EXPECT_NEAR(logsumexp(-1000.0, 0.0), 0.0, 1e-12);
}

TEST(LogProb, LogSumExpVector) {
  std::vector<double> v = {std::log(0.1), std::log(0.2), std::log(0.7)};
  EXPECT_NEAR(logsumexp(v), 0.0, 1e-12);
  EXPECT_EQ(logsumexp(std::vector<double>{}), -kInf);
}

TEST(LogProb, LogitSigmoidInverse) {
  for (double p : {0.01, 0.3, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(sigmoid(logit(p)), p, 1e-12);
  }
}

TEST(LogProb, SigmoidSymmetry) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(3.0) + sigmoid(-3.0), 1.0, 1e-12);
}

TEST(LogProb, NormalizeLogPair) {
  // w1 = 0.2, w0 = 0.6 -> 0.25
  EXPECT_NEAR(normalize_log_pair(std::log(0.2), std::log(0.6)), 0.25,
              1e-12);
  EXPECT_DOUBLE_EQ(normalize_log_pair(-kInf, -kInf), 0.5);
  EXPECT_DOUBLE_EQ(normalize_log_pair(-kInf, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(normalize_log_pair(0.0, -kInf), 1.0);
}

TEST(LogProb, NormalizeLogPairUnderflowScale) {
  // Identical shifts cancel: the pair (-2000, -2001) must match
  // (0, -1).
  double expected = normalize_log_pair(0.0, -1.0);
  EXPECT_NEAR(normalize_log_pair(-2000.0, -2001.0), expected, 1e-12);
}

TEST(LogProb, ClampProb) {
  EXPECT_DOUBLE_EQ(clamp_prob(-0.5), 1e-9);
  EXPECT_DOUBLE_EQ(clamp_prob(1.5), 1.0 - 1e-9);
  EXPECT_DOUBLE_EQ(clamp_prob(0.5), 0.5);
}

TEST(StreamingStats, MeanVarianceMatchBatch) {
  Rng rng(3);
  std::vector<double> xs;
  StreamingStats s;
  for (int i = 0; i < 500; ++i) {
    double x = rng.normal(2.0, 3.0);
    xs.push_back(x);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(s.variance(), variance(xs), 1e-9);
  EXPECT_EQ(s.count(), 500u);
}

TEST(StreamingStats, MergeEqualsSequential) {
  Rng rng(4);
  StreamingStats all;
  StreamingStats left;
  StreamingStats right;
  for (int i = 0; i < 400; ++i) {
    double x = rng.uniform(-1.0, 5.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(StreamingStats, EmptyAndSingle) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Stats, Quantile) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}

TEST(Stats, PearsonPerfectAndConstant) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
  std::vector<double> c = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);
}

TEST(Matrix, IndexingAndSums) {
  Matrix m(2, 3, 1.0);
  m(0, 1) = 4.0;
  m(1, 2) = -2.0;
  EXPECT_DOUBLE_EQ(m.row_sum(0), 6.0);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 0.0);
  EXPECT_DOUBLE_EQ(m.col_sum(1), 5.0);
  EXPECT_DOUBLE_EQ(m.sum(), 6.0);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 0.0);
  Matrix b(2, 2, 0.0);
  b(1, 0) = 0.25;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.25);
}

TEST(VectorOps, DotAndDistances) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(l1_distance(a, b), 3.0 + 7.0 + 3.0);
  EXPECT_DOUBLE_EQ(linf_distance(a, b), 7.0);
}

TEST(VectorOps, Axpy) {
  std::vector<double> a = {1.0, 1.0};
  std::vector<double> b = {2.0, 3.0};
  axpy(0.5, b, a);
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[1], 2.5);
}

TEST(VectorOps, CosineSimilarity) {
  std::vector<double> a = {1.0, 0.0};
  std::vector<double> b = {0.0, 2.0};
  EXPECT_DOUBLE_EQ(cosine_similarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);
  std::vector<double> zero = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(cosine_similarity(a, zero), 1.0);
}

TEST(VectorOps, Normalizers) {
  std::vector<double> v = {1.0, 3.0};
  EXPECT_TRUE(normalize_sum(v));
  EXPECT_DOUBLE_EQ(v[0] + v[1], 1.0);
  std::vector<double> w = {2.0, 8.0};
  EXPECT_TRUE(normalize_max(w));
  EXPECT_DOUBLE_EQ(w[1], 1.0);
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_FALSE(normalize_sum(zeros));
  EXPECT_FALSE(normalize_max(zeros));
}

TEST(DiscreteSampler, RespectsWeights) {
  Rng rng(21);
  DiscreteSampler sampler({1.0, 0.0, 2.0, 1.0});
  std::vector<int> counts(4, 0);
  const int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[sampler.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 2.0, 0.15);
  EXPECT_NEAR(static_cast<double>(counts[3]) / counts[0], 1.0, 0.1);
}

TEST(DiscreteSampler, ZipfFactoryIsHeavyHeaded) {
  Rng rng(22);
  DiscreteSampler sampler = DiscreteSampler::zipf(100, 1.0);
  EXPECT_EQ(sampler.size(), 100u);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.sample(rng)];
  EXPECT_GT(counts[0], counts[20]);
}

TEST(DiscreteSampler, RejectsDegenerateWeights) {
  EXPECT_THROW(DiscreteSampler({}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({1.0, -0.5}), std::invalid_argument);
}

TEST(Convergence, StopsOnSmallDelta) {
  ConvergenceMonitor m(1e-3, 100);
  EXPECT_FALSE(m.update_delta(0.5));
  EXPECT_FALSE(m.update_delta(0.1));
  EXPECT_TRUE(m.update_delta(1e-4));
  EXPECT_TRUE(m.converged());
  EXPECT_EQ(m.iterations(), 3u);
}

TEST(Convergence, HitsMaxIters) {
  ConvergenceMonitor m(1e-9, 5);
  bool stopped = false;
  for (int i = 0; i < 5 && !stopped; ++i) stopped = m.update_delta(1.0);
  EXPECT_TRUE(stopped);
  EXPECT_FALSE(m.converged());
  EXPECT_EQ(m.iterations(), 5u);
}

TEST(Convergence, ConvergedOnLastAllowedIteration) {
  // The tolerance is met on the final allowed update: the run stops at
  // the cap and still counts as converged.
  ConvergenceMonitor m(1e-3, 3);
  EXPECT_FALSE(m.update_delta(1.0));
  EXPECT_FALSE(m.update_delta(1.0));
  EXPECT_TRUE(m.update_delta(0.0));
  EXPECT_TRUE(m.converged());
  EXPECT_EQ(m.iterations(), 3u);
}

TEST(Convergence, ValueModeNeedsStability) {
  ConvergenceMonitor m(1e-3, 100, /*patience=*/3);
  EXPECT_FALSE(m.update(1.0));      // first sample never converges
  EXPECT_FALSE(m.update(1.0));      // streak 1
  EXPECT_FALSE(m.update(1.0));      // streak 2
  EXPECT_TRUE(m.update(1.0001));    // streak 3 (within tol)
}

TEST(Convergence, ValueModeResetsOnJump) {
  ConvergenceMonitor m(1e-3, 100, /*patience=*/2);
  EXPECT_FALSE(m.update(1.0));
  EXPECT_FALSE(m.update(1.0));   // streak 1
  EXPECT_FALSE(m.update(2.0));   // jump resets
  EXPECT_FALSE(m.update(2.0));   // streak 1
  EXPECT_TRUE(m.update(2.0));    // streak 2
}

}  // namespace
}  // namespace ss
