// Golden bit-identity scenarios for the kernel migration (PR 3).
//
// Each golden_* function runs one estimator on a fixed synthetic input
// and folds every numeric output into an FNV-1a hash of its raw IEEE-754
// bytes. The hashes hard-coded in test_kernels.cpp were recorded by
// compiling this header against the PRE-kernel code (commit cbc8d85);
// the kernel-layer rewrite must reproduce them bit for bit, which is the
// strongest possible "hoisting reorders no floating-point operations"
// check. If a later PR changes these numbers *intentionally* (a genuine
// model change, not a kernel regression), re-record the constants and
// say so in the commit message. EM-Social and EM (IPSN'12) were
// re-pinned once, when they became data views on the EM-Ext engine
// (estimators/em_social.h, em_ipsn12.h); their decision hashes below
// were recorded before that change and still hold.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bounds/column_model.h"
#include "bounds/gibbs_bound.h"
#include "core/em_ext.h"
#include "core/streaming_em.h"
#include "data/dependency.h"
#include "estimators/average_log.h"
#include "estimators/em_ipsn12.h"
#include "estimators/em_social.h"
#include "estimators/truth_finder.h"
#include "graph/digraph.h"
#include "simgen/parametric_gen.h"
#include "util/fault_inject.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ss::golden {

// FNV-1a over raw bytes; doubles are folded via memcpy so the hash is a
// bit-exact witness (distinguishes even -0.0 from 0.0).
class Hash {
 public:
  void bytes(const void* data, std::size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= static_cast<std::uint64_t>(p[i]);
      h_ *= 1099511628211ull;
    }
  }
  void f64(double x) { bytes(&x, sizeof(x)); }
  void u64(std::uint64_t x) { bytes(&x, sizeof(x)); }
  void vec(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

inline Dataset golden_dataset(std::uint64_t seed, std::size_t n,
                              std::size_t m) {
  Rng rng(seed);
  return generate_parametric(SimKnobs::paper_defaults(n, m), rng).dataset;
}

inline void hash_params(Hash& h, const ModelParams& p) {
  h.f64(p.z);
  h.u64(p.source.size());
  for (const SourceParams& s : p.source) {
    h.f64(s.a);
    h.f64(s.b);
    h.f64(s.f);
    h.f64(s.g);
  }
}

inline void hash_em_result(Hash& h, const EmExtResult& r) {
  h.vec(r.estimate.belief);
  h.vec(r.estimate.log_odds);
  h.vec(r.likelihood_trace);
  h.f64(r.log_likelihood);
  hash_params(h, r.params);
}

// EM-Ext, vote-prior init (the default deterministic path).
inline std::uint64_t golden_em_ext_vote(std::size_t threads) {
  Dataset d = golden_dataset(101, 120, 300);
  ThreadPool pool(threads);
  EmExtConfig config;
  config.pool = &pool;
  Hash h;
  hash_em_result(h, EmExtEstimator(config).run_detailed(d, 5));
  return h.value();
}

// EM-Ext, random restarts (exercises the split RNG streams and the
// parallel-restart winner selection).
inline std::uint64_t golden_em_ext_random(std::size_t threads) {
  Dataset d = golden_dataset(101, 120, 300);
  ThreadPool pool(threads);
  EmExtConfig config;
  config.pool = &pool;
  config.init_kind = EmInit::kRandom;
  config.restarts = 3;
  Hash h;
  hash_em_result(h, EmExtEstimator(config).run_detailed(d, 9));
  return h.value();
}

// Both hashes of one streaming run. `bits` folds every batch's beliefs,
// log-odds and log-likelihood (plus, for the sparse stream, its commit
// flag), then the final params. `decisions` folds what a caller reads
// from each batch: the commit flag, the decision (belief > 0.5) per
// assertion and the full log-odds ranking. The streaming bit hashes
// were re-pinned once, when StreamingEmExt moved onto the engine's
// fused M-step tail; the decision hashes were recorded before that
// change and still hold on every backend.
struct StreamingHashes {
  std::uint64_t bits = 0;
  std::uint64_t decisions = 0;
};

inline void hash_batch_decisions(Hash& h, const StreamingBatchResult& r) {
  h.u64(r.stats_committed ? 1 : 0);
  h.u64(r.belief.size());
  for (double b : r.belief) h.u64(b > 0.5 ? 1 : 0);
  EstimateResult est;
  est.belief = r.belief;
  est.log_odds = r.log_odds;
  for (std::uint32_t j : est.ranking()) h.u64(j);
}

// StreamingEmExt over three batches sharing one source universe.
inline StreamingHashes golden_streaming() {
  StreamingEmExt stream(100);
  Hash h;
  Hash d;
  for (std::uint64_t seed : {201u, 202u, 203u}) {
    Dataset batch = golden_dataset(seed, 100, 150);
    StreamingBatchResult r = stream.observe(batch);
    h.vec(r.belief);
    h.vec(r.log_odds);
    h.f64(r.log_likelihood);
    hash_batch_decisions(d, r);
  }
  hash_params(h, stream.params());
  return {h.value(), d.value()};
}

// StreamingEmExt above the per-source chunk size (kernels::
// kSourceChunk): a 6,000-source universe in which each batch's 300
// claims come from a 2,400-source band that slides with the batch, so
// most sources are silent in any one batch and sources move between
// active and silent from batch to batch; exposures follow a sparse
// random follower graph. Batch 3 is poisoned by fault injection on its
// third inner iteration (seed 18 at rate 0.5 fires on the third draw),
// so it exits early after two iterations gathered statistics. The bit
// hash covers every batch's commit flag, beliefs, log-odds and
// log-likelihood, then the final params.
inline StreamingHashes golden_streaming_sparse(ThreadPool* pool) {
  constexpr std::size_t kSources = 6000;
  constexpr std::size_t kAssertions = 40;
  Rng rng(301);
  Digraph follows(kSources);
  for (std::size_t u = 0; u < kSources; ++u) {
    for (int e = 0; e < 3; ++e) follows.add_edge(u, rng.uniform_u32(kSources));
  }
  StreamingEmConfig config;
  config.pool = pool;
  StreamingEmExt stream(kSources, config);
  Hash h;
  Hash d;
  for (std::size_t b = 0; b < 6; ++b) {
    std::vector<Claim> claims;
    for (int k = 0; k < 300; ++k) {
      std::size_t source = (b * 900 + rng.uniform_u32(2400)) % kSources;
      claims.push_back({static_cast<std::uint32_t>(source),
                        rng.uniform_u32(kAssertions),
                        rng.uniform(0.0, 10.0)});
    }
    Dataset batch;
    batch.claims = SourceClaimMatrix(kSources, kAssertions, claims);
    batch.dependency =
        DependencyIndicators::from_graph(batch.claims, follows);
    fault::FaultConfig faults;  // seed 0: disarmed
    if (b == 3) {
      faults.seed = 18;
      faults.posterior_nan_rate = 0.5;
      faults.max_injections = 1;
    }
    StreamingBatchResult r;
    {
      fault::ScopedFaultInjection inject(faults);
      r = stream.observe(batch);
    }
    h.u64(r.stats_committed ? 1 : 0);
    h.vec(r.belief);
    h.vec(r.log_odds);
    h.f64(r.log_likelihood);
    hash_batch_decisions(d, r);
  }
  hash_params(h, stream.params());
  return {h.value(), d.value()};
}

// Gibbs bound, two chains (chain 0 keeps the historical stream).
inline std::uint64_t golden_gibbs(std::size_t threads) {
  Rng rng(7);
  SimInstance inst =
      generate_parametric(SimKnobs::paper_defaults(60, 80), rng);
  ColumnModel model =
      make_column_model(inst.true_params, inst.dataset.dependency, 3);
  ThreadPool pool(threads);
  GibbsBoundConfig config;
  config.pool = &pool;
  config.chains = 2;
  config.max_sweeps = 1500;
  GibbsBoundResult r = gibbs_bound(model, 11, config);
  Hash h;
  h.f64(r.bound.false_positive);
  h.f64(r.bound.false_negative);
  h.f64(r.bound.error);
  h.f64(r.effective_sample_size);
  h.f64(r.autocorr_lag1);
  h.f64(r.r_hat);
  h.u64(r.sweeps);
  return h.value();
}

inline std::uint64_t golden_em_social() {
  Dataset d = golden_dataset(101, 120, 300);
  EstimateResult r = EmSocialEstimator().run(d, 1);
  Hash h;
  h.vec(r.belief);
  h.vec(r.log_odds);
  return h.value();
}

inline std::uint64_t golden_em_ipsn12() {
  Dataset d = golden_dataset(101, 120, 300);
  EmIpsn12Result r = EmIpsn12Estimator().run_detailed(d, 1);
  Hash h;
  h.vec(r.estimate.belief);
  h.vec(r.estimate.log_odds);
  h.vec(r.a);
  h.vec(r.b);
  h.f64(r.z);
  return h.value();
}

// What an evaluation reads from a run: the decision (belief > 0.5) per
// assertion, the top-50 ranking and the iteration count.
inline std::uint64_t decisions_hash(const EstimateResult& r) {
  Hash h;
  h.u64(r.belief.size());
  for (double b : r.belief) h.u64(b > 0.5 ? 1 : 0);
  std::vector<std::uint32_t> order = r.ranking();
  order.resize(std::min<std::size_t>(order.size(), 50));
  for (std::uint32_t j : order) h.u64(j);
  h.u64(r.iterations);
  return h.value();
}

inline std::uint64_t golden_em_social_decisions() {
  return decisions_hash(
      EmSocialEstimator().run(golden_dataset(101, 120, 300), 1));
}

inline std::uint64_t golden_em_ipsn12_decisions() {
  return decisions_hash(
      EmIpsn12Estimator().run(golden_dataset(101, 120, 300), 1));
}

inline std::uint64_t golden_truth_finder() {
  Dataset d = golden_dataset(101, 120, 300);
  EstimateResult r = TruthFinderEstimator().run(d, 1);
  Hash h;
  h.vec(r.belief);
  return h.value();
}

inline std::uint64_t golden_average_log() {
  Dataset d = golden_dataset(101, 120, 300);
  EstimateResult r = AverageLogEstimator().run(d, 1);
  Hash h;
  h.vec(r.belief);
  return h.value();
}

}  // namespace ss::golden
