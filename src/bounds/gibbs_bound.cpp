#include "bounds/gibbs_bound.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "math/convergence.h"
#include "math/kernels.h"
#include "math/logprob.h"
#include "util/checkpoint.h"
#include "util/fault_inject.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

// CheckpointStore kind tag for Gibbs chains.
constexpr std::uint64_t kGibbsCheckpointKind = 2;
// Entry clamp for degenerate model probabilities. p in {0,1} makes the
// leave-one-out conditionals NaN (-inf minus -inf); pulling such
// entries this far inside (0,1) leaves every non-degenerate model
// bit-identical while making the chain arithmetic finite.
constexpr double kProbEps = 1e-12;

// Chain state: the claim bits plus the two log-likelihood sums
//   L1 = log P(s | C=1), L0 = log P(s | C=0)
// maintained incrementally (O(1) per bit flip) and refreshed once per
// sweep to cancel floating-point drift.
struct ChainState {
  std::vector<char> bits;
  double log_true = 0.0;
  double log_false = 0.0;
};

// Everything one chain produces: the accumulators of both estimators,
// the per-sweep min-posterior series, and its diagnostics.
struct ChainRun {
  double err_part = 0.0;  // Algorithm 1 numerator
  double total = 0.0;     // Algorithm 1 denominator
  double fp_part = 0.0;
  double fn_part = 0.0;
  double err_mc = 0.0;  // unbiased mean of min-posterior
  double fp_mc = 0.0;
  double fn_mc = 0.0;
  std::size_t samples = 0;
  bool converged = false;
  std::vector<double> min_posterior_series;
  double ess = 0.0;
  double lag1 = 0.0;
  std::size_t nonfinite_sweeps = 0;
  bool resumed = false;  // replayed from a checkpoint, not recomputed
};

// A finished chain, serialized bit-exact for CheckpointStore; resuming
// from these records reproduces the uninterrupted run exactly.
std::string encode_chain(const ChainRun& r) {
  BinWriter w;
  w.f64(r.err_part);
  w.f64(r.total);
  w.f64(r.fp_part);
  w.f64(r.fn_part);
  w.f64(r.err_mc);
  w.f64(r.fp_mc);
  w.f64(r.fn_mc);
  w.u64(r.samples);
  w.u8(r.converged ? 1 : 0);
  w.vec_f64(r.min_posterior_series);
  w.f64(r.ess);
  w.f64(r.lag1);
  w.u64(r.nonfinite_sweeps);
  return w.take();
}

// Throws std::runtime_error on any malformed payload; the caller treats
// that as "record absent" and recomputes the chain.
ChainRun decode_chain(const std::string& bytes) {
  BinReader rd(bytes);
  ChainRun r;
  r.err_part = rd.f64();
  r.total = rd.f64();
  r.fp_part = rd.f64();
  r.fn_part = rd.f64();
  r.err_mc = rd.f64();
  r.fp_mc = rd.f64();
  r.fn_mc = rd.f64();
  r.samples = static_cast<std::size_t>(rd.u64());
  r.converged = rd.u8() != 0;
  r.min_posterior_series = rd.vec_f64();
  r.ess = rd.f64();
  r.lag1 = rd.f64();
  r.nonfinite_sweeps = static_cast<std::size_t>(rd.u64());
  r.resumed = true;
  if (!rd.done()) {
    throw std::runtime_error("checkpoint: trailing bytes");
  }
  return r;
}

// Initial-monotone-sequence style ESS estimate over a scalar series.
// Autocorrelations are summed up to the first non-positive lag (capped),
// the standard practical truncation for MCMC output.
void chain_diagnostics(const std::vector<double>& series, double* ess,
                       double* lag1) {
  *ess = static_cast<double>(series.size());
  *lag1 = 0.0;
  std::size_t n = series.size();
  if (n < 4) return;
  double mean = 0.0;
  for (double x : series) mean += x;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double x : series) var += (x - mean) * (x - mean);
  var /= static_cast<double>(n);
  if (var <= 0.0) return;  // constant chain: treat as i.i.d.
  double sum_rho = 0.0;
  std::size_t max_lag = std::min<std::size_t>(n / 2, 200);
  for (std::size_t lag = 1; lag <= max_lag; ++lag) {
    double acc = 0.0;
    for (std::size_t t = lag; t < n; ++t) {
      acc += (series[t] - mean) * (series[t - lag] - mean);
    }
    double rho = acc / (static_cast<double>(n) * var);
    if (lag == 1) *lag1 = rho;
    if (rho <= 0.0) break;
    sum_rho += rho;
  }
  *ess = static_cast<double>(n) / (1.0 + 2.0 * sum_rho);
}

// Gelman-Rubin potential scale reduction over per-chain series truncated
// to their common length.
double cross_chain_r_hat(const std::vector<ChainRun>& runs) {
  std::size_t k = runs.size();
  if (k < 2) return 1.0;
  std::size_t len = runs[0].min_posterior_series.size();
  for (const ChainRun& r : runs) {
    len = std::min(len, r.min_posterior_series.size());
  }
  if (len < 4) return 1.0;
  double n = static_cast<double>(len);
  std::vector<double> means(k, 0.0);
  std::vector<double> vars(k, 0.0);
  double grand = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    const auto& s = runs[c].min_posterior_series;
    for (std::size_t t = 0; t < len; ++t) means[c] += s[t];
    means[c] /= n;
    for (std::size_t t = 0; t < len; ++t) {
      vars[c] += (s[t] - means[c]) * (s[t] - means[c]);
    }
    vars[c] /= n - 1.0;
    grand += means[c];
  }
  grand /= static_cast<double>(k);
  double between = 0.0;  // B/n: variance of the chain means
  double within = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    between += (means[c] - grand) * (means[c] - grand);
    within += vars[c];
  }
  between /= static_cast<double>(k - 1);
  within /= static_cast<double>(k);
  if (within <= 0.0) return 1.0;  // constant chains
  double var_plus = (n - 1.0) / n * within + between;
  return std::sqrt(var_plus / within);
}

// Full-state refresh from the hoisted sweep weights: same logs, same
// source-order summation as the per-source loop it replaces (on the
// scalar backend; the AVX2 backend runs the table's packed refresh
// under its ULP contract).
void refresh_logs(const kernels::SweepWeightsTable& weights,
                  ChainState& state) {
  kernels::LogPair sums = weights.sum_state_logs(state.bits);
  state.log_true = sums.t;
  state.log_false = sums.f;
}

// One full chain: Algorithm 1's sweep loop with both estimators'
// accumulators. Exactly the historical single-chain behaviour.
// `weights` holds the per-source log claim probabilities and `marginal`
// the prior-mixture claim marginals — both chain-constant, hoisted once
// by gibbs_bound() and shared across chains (the pre-kernel sweep paid
// four transcendentals per source per sweep for the same values).
ChainRun run_chain(const ColumnModel& model,
                   const kernels::SweepWeightsTable& weights,
                   const std::vector<double>& marginal, Rng rng,
                   const GibbsBoundConfig& config) {
  std::size_t n = model.source_count();
  const double log_z = safe_log(model.z);
  const double log_1mz = safe_log1m(model.z);

  ChainState state;
  state.bits.resize(n);
  // Initialize each bit from its marginal claim probability under the
  // prior mixture — a draw already close to the target distribution.
  for (std::size_t i = 0; i < n; ++i) {
    state.bits[i] = rng.bernoulli(marginal[i]) ? 1 : 0;
  }
  refresh_logs(weights, state);

  ChainRun run;
  run.min_posterior_series.reserve(
      std::min<std::size_t>(config.max_sweeps, 20000));

  ConvergenceMonitor monitor(config.tol, config.max_sweeps,
                             config.patience);
  bool done = false;
  std::size_t sweep = 0;

  while (!done) {
    ++sweep;
    refresh_logs(weights, state);
    for (std::size_t i = 0; i < n; ++i) {
      double p1 = model.p_claim_true[i];
      double p0 = model.p_claim_false[i];
      const kernels::SweepWeights& w = weights[i];
      double log_t1 = w.log_t1;
      double log_t1n = w.log_t1n;
      double log_f1 = w.log_f1;
      double log_f1n = w.log_f1n;
      // Leave-one-out log likelihoods.
      double rest_true =
          state.log_true - (state.bits[i] ? log_t1 : log_t1n);
      double rest_false =
          state.log_false - (state.bits[i] ? log_f1 : log_f1n);
      // P(s_i = 1 | rest) marginalizing C (Algorithm 1 line 6):
      //   w1 = z * P(rest | C=1), w0 = (1-z) * P(rest | C=0)
      //   P(s_i=1|rest) = (w1*p1 + w0*p0) / (w1 + w0)
      double lw1 = log_z + rest_true;
      double lw0 = log_1mz + rest_false;
      double w1_frac = normalize_log_pair(lw1, lw0);  // w1/(w1+w0)
      double prob_one = w1_frac * p1 + (1.0 - w1_frac) * p0;
      bool bit = rng.bernoulli(prob_one);
      state.bits[i] = bit ? 1 : 0;
      state.log_true = rest_true + (bit ? log_t1 : log_t1n);
      state.log_false = rest_false + (bit ? log_f1 : log_f1n);
    }
    if (!std::isfinite(state.log_true) ||
        !std::isfinite(state.log_false)) {
      // Degenerate state escaped the entry clamp (injected fault or
      // extreme model): re-draw the bits from the prior marginals and
      // keep the chain running; this sweep yields no sample.
      ++run.nonfinite_sweeps;
      for (std::size_t i = 0; i < n; ++i) {
        state.bits[i] = rng.bernoulli(marginal[i]) ? 1 : 0;
      }
      refresh_logs(weights, state);
      if (sweep >= config.max_sweeps) done = true;
      continue;
    }
    if (sweep <= config.burn_in_sweeps) continue;

    // One post-burn-in sample per sweep.
    ++run.samples;
    double lm1 = log_z + state.log_true;      // log(z P1)
    double lm0 = log_1mz + state.log_false;   // log((1-z) P0)
    double m1 = from_log(lm1);
    double m0 = from_log(lm0);
    bool decide_true = lm1 >= lm0;
    run.err_part += decide_true ? m0 : m1;
    run.total += m1 + m0;
    if (decide_true) {
      run.fp_part += m0;
    } else {
      run.fn_part += m1;
    }
    double min_posterior = normalize_log_pair(
        decide_true ? lm0 : lm1, decide_true ? lm1 : lm0);
    run.min_posterior_series.push_back(min_posterior);
    run.err_mc += min_posterior;
    if (decide_true) {
      run.fp_mc += min_posterior;
    } else {
      run.fn_mc += min_posterior;
    }

    double current =
        config.kind == GibbsEstimatorKind::kAlgorithm1
            ? (run.total > 0.0 ? run.err_part / run.total : 0.0)
            : run.err_mc / static_cast<double>(run.samples);
    if (run.samples >= config.min_sweeps && monitor.update(current)) {
      done = true;
      run.converged = monitor.converged();
    }
    if (sweep >= config.max_sweeps) done = true;
  }

  chain_diagnostics(run.min_posterior_series, &run.ess, &run.lag1);
  return run;
}

}  // namespace

GibbsBoundResult gibbs_bound(const ColumnModel& model, std::uint64_t seed,
                             const GibbsBoundConfig& config) {
  std::size_t chains = std::max<std::size_t>(1, config.chains);
  std::vector<ChainRun> runs(chains);

  // Entry clamp: p in {0,1} (or NaN) would make the leave-one-out
  // conditionals non-finite; identity on non-degenerate models.
  ColumnModel clamped = model;
  std::size_t clamps = 0;
  auto clamp_entry = [&clamps](double& p) {
    if (!(p >= kProbEps)) {  // also catches NaN
      p = kProbEps;
      ++clamps;
    } else if (p > 1.0 - kProbEps) {
      p = 1.0 - kProbEps;
      ++clamps;
    }
  };
  for (double& p : clamped.p_claim_true) clamp_entry(p);
  for (double& p : clamped.p_claim_false) clamp_entry(p);
  clamp_entry(clamped.z);

  // Chain-constant per-source terms, hoisted once and shared by every
  // chain: the sweep-loop log weights and the prior-mixture claim
  // marginals used for initialization and non-finite recovery redraws.
  kernels::SweepWeightsTable weights;
  weights.build(clamped.p_claim_true, clamped.p_claim_false);
  std::vector<double> marginal(clamped.source_count());
  for (std::size_t i = 0; i < marginal.size(); ++i) {
    marginal[i] = clamped.z * clamped.p_claim_true[i] +
                  (1.0 - clamped.z) * clamped.p_claim_false[i];
  }

  // Checkpoint store bound to everything that determines a chain's
  // output; a stale file (different model, seed or config) is ignored.
  std::unique_ptr<CheckpointStore> ckpt;
  if (!config.checkpoint_path.empty()) {
    std::uint64_t fp = fingerprint_combine(0x47424253ull, seed);
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(clamped.source_count()));
    fp = fingerprint_combine(fp, clamped.z);
    for (double p : clamped.p_claim_true) fp = fingerprint_combine(fp, p);
    for (double p : clamped.p_claim_false) {
      fp = fingerprint_combine(fp, p);
    }
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(config.burn_in_sweeps));
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(config.max_sweeps));
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(config.min_sweeps));
    fp = fingerprint_combine(fp, config.tol);
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(config.patience));
    fp = fingerprint_combine(fp, static_cast<std::uint64_t>(config.kind));
    ckpt = std::make_unique<CheckpointStore>(
        config.checkpoint_path, kGibbsCheckpointKind, fp, chains);
  }

  // Chain 0 keeps the historical RNG stream so `chains = 1` reproduces
  // the single-chain results bit-for-bit; extra chains draw from split
  // streams keyed only by the chain index.
  auto launch = [&](std::size_t c) {
    if (ckpt != nullptr && ckpt->has(c)) {
      try {
        runs[c] = decode_chain(ckpt->payload(c));
        return;
      } catch (const std::exception&) {
        // Undecodable record: recompute. A checkpoint can only save
        // work, never poison a run.
      }
    }
    Rng base(seed, /*stream=*/0x61bb5);
    runs[c] = run_chain(clamped, weights, marginal,
                        c == 0 ? base : base.split(c), config);
    if (ckpt != nullptr) {
      ckpt->commit(c, encode_chain(runs[c]));
      fault::unit_committed();  // kill-after-commit injection point
    }
  };
  if (chains > 1) {
    ThreadPool* pool =
        config.pool != nullptr ? config.pool : &global_pool();
    pool->parallel_for_chunks(
        chains, 1, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t c = begin; c < end; ++c) launch(c);
        });
  } else {
    launch(0);
  }

  // Pool the estimators in chain order (deterministic for any pool
  // size; with one chain the reduction is the identity).
  GibbsBoundResult out;
  out.chains = chains;
  out.converged = true;
  out.clamped_probabilities = clamps;
  double err_part = 0.0, total = 0.0, fp_part = 0.0, fn_part = 0.0;
  double fp_mc = 0.0, fn_mc = 0.0, lag1_sum = 0.0;
  std::size_t samples = 0;
  for (const ChainRun& run : runs) {
    err_part += run.err_part;
    total += run.total;
    fp_part += run.fp_part;
    fn_part += run.fn_part;
    fp_mc += run.fp_mc;
    fn_mc += run.fn_mc;
    samples += run.samples;
    out.converged = out.converged && run.converged;
    out.effective_sample_size += run.ess;
    lag1_sum += run.lag1;
    out.nonfinite_sweeps += run.nonfinite_sweeps;
    if (run.resumed) ++out.resumed_chains;
  }
  out.sweeps = samples;
  out.autocorr_lag1 = lag1_sum / static_cast<double>(chains);
  if (config.kind == GibbsEstimatorKind::kAlgorithm1) {
    double denom = total > 0.0 ? total : 1.0;
    out.bound.false_positive = fp_part / denom;
    out.bound.false_negative = fn_part / denom;
  } else {
    double denom = samples > 0 ? static_cast<double>(samples) : 1.0;
    out.bound.false_positive = fp_mc / denom;
    out.bound.false_negative = fn_mc / denom;
  }
  out.bound.error = out.bound.false_positive + out.bound.false_negative;
  out.r_hat = cross_chain_r_hat(runs);
  if (ckpt != nullptr && !config.keep_checkpoint) ckpt->remove_file();
  return out;
}

}  // namespace ss
