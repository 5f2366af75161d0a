// EM-Ext: the paper's dependency-aware maximum-likelihood fact-finder
// (Section IV, Algorithm 2).
//
// Jointly estimates the per-source behaviour parameters
// theta_i = {a_i, b_i, f_i, g_i}, the prior z, and the truth posterior of
// every assertion, by alternating:
//   E-step (Eq. 9):    Z_j = P(C_j = 1 | SC_j; D, theta)
//   M-step (Eq. 10-14): closed-form ratio updates of a, f, b, g, z
// until the parameter vector moves less than `tol` in the max norm.
//
// Initialization. Algorithm 2 line 1 says "random probability", but pure
// random parameter draws often land the chain in a degenerate basin where
// z collapses toward 0 and every assertion is called false (the prior
// term then buries the evidence — a well-known failure mode of
// truth-discovery EM). The default here is therefore a *vote prior*: the
// initial posterior Z_j = support_j / (support_j + mean support), i.e.
// assertions with above-average support start slightly believed, and the
// first M-step derives parameters from that. kRandom reproduces the
// paper's literal initialization for comparison.
//
// Execution. run_detailed shards the dataset by connected component
// (data/shard.h, auto cap) and runs the one EM engine in
// core/sharded_em.cpp; small inputs are a single shard. Calling
// ShardedEmEstimator on a prebuilt ShardedDataset is the same engine
// without the build, so the two entry points return identical bytes
// for any shard layout and pool size.
#pragma once

#include <optional>
#include <string>

#include "core/estimator.h"
#include "core/params.h"

namespace ss {

class ThreadPool;

enum class EmInit {
  kVotePrior,  // data-driven initial posterior (default, robust)
  kRandom,     // Algorithm 2's literal random parameters
};

// Probability clamp keeping likelihoods finite (DESIGN.md §5); every EM
// path's M-step clamps its rates and z to [eps, 1 - eps].
inline constexpr double kEmClampEps = 1e-6;
// Bounds on the learned prior z. With sparse evidence z is weakly
// identified and plain MLE can spiral into z -> 0 (or 1): singleton
// assertions inherit the prior, the prior is re-estimated from them,
// and the collapsed fixed point swallows the informative one. Keeping
// z inside [kEmZFloor, 1 - kEmZFloor] caps the spiral while leaving
// evidence-bearing assertions free to override the prior.
inline constexpr double kEmZFloor = 0.05;
// Fault tolerance (docs/MODEL.md §9). An attempt whose E-step goes
// non-finite (injected fault, pathological input) is re-seeded from a
// fresh random initialization up to this many times; an attempt that
// exhausts its retries falls back to the vote-prior posterior with
// log-likelihood -inf, so it never poisons the winner selection (it
// wins only if every attempt diverged — and even then the returned
// beliefs are finite).
inline constexpr std::size_t kEmMaxDivergenceRetries = 2;

struct EmExtConfig {
  double tol = 1e-6;
  std::size_t max_iters = 200;
  // Hierarchical shrinkage: each per-source rate is MAP-estimated under
  // a Beta prior whose mean is the *pooled* (all-source) rate and whose
  // strength is `shrinkage` pseudo-claims (i.e. shrinkage/mu pseudo
  // cells, so the prior carries the same weight whether rates are ~0.4
  // as in the dense simulations or ~0.002 as in sparse Twitter data).
  // Sources with many claims keep their individual estimates; sources
  // with one claim shrink toward the population, which breaks the
  // "assertion believed -> its lone claimant looks reliable -> assertion
  // believed harder" echo chamber on sparse data, and stops noisy
  // f_i/g_i estimates from hurting EM-Ext exactly when dependent claims
  // carry little information (the paper's Fig. 10 left edge). 0 disables
  // (the paper's literal M-step); ablation bench A5 quantifies the
  // effect. The EM baselines run on this engine at these defaults, so
  // comparisons isolate the dependency model, not the regularizer.
  double shrinkage = 8.0;
  // Two-phase fit. Phase 1 runs EM with f_i = g_i tied — provably
  // equivalent to deleting every dependent cell (EM-Social's premise;
  // see tests/test_properties.cpp) — so assertion labels stabilize from
  // *independent* evidence alone. Phase 2 releases f, g, which then
  // learn their sign from those labels: echoes concentrated on
  // false-labelled cascades land in g, not f. Without the warm-up a
  // viral rumour whose independent support happens to sit above average
  // seeds its own echoes into f and locks the dependent-claim semantics
  // in backwards (observed on Twitter-scale data). 0 disables.
  std::size_t warmup_iters = 50;
  EmInit init_kind = EmInit::kVotePrior;
  // Optional explicit initialization; overrides init_kind when set.
  std::optional<ModelParams> init;
  // Number of random restarts; the run with the best final data
  // log-likelihood wins. Only meaningful with kRandom (vote-prior and
  // explicit initializations are deterministic). Restarts run
  // concurrently on the pool; the winner is selected in attempt order,
  // so results do not depend on scheduling.
  std::size_t restarts = 1;
  // Worker pool for the fused E-step, the M-step statistics and the
  // restarts. nullptr selects the process-wide global_pool() (sized by
  // SS_THREADS). Results are bit-identical for every pool size,
  // including 1 — parallel slots are index-addressed and every
  // floating-point reduction is a fixed-shape tree whose shape depends
  // only on the element count (math/kernels.h).
  ThreadPool* pool = nullptr;
  // Checkpoint/resume. Empty disables. The file stores one binary
  // record per completed restart attempt (util/checkpoint.h); a killed
  // run re-invoked with the same path replays completed attempts and
  // recomputes only the rest, reproducing the uninterrupted run
  // bit-for-bit. The file is bound to a fingerprint of (seed, dataset
  // shape, config); on mismatch or corruption it is ignored and the
  // run starts clean. Removed after a successful run unless
  // keep_checkpoint is set.
  std::string checkpoint_path;
  bool keep_checkpoint = false;
};

// Fault-tolerance accounting of one run (zero everywhere on a healthy
// run; the guards themselves never perturb finite results).
struct EmHealth {
  std::size_t nonfinite_events = 0;    // E-step outputs caught non-finite
  std::size_t reseeded_attempts = 0;   // divergence recoveries via re-seed
  std::size_t failed_attempts = 0;     // attempts that fell back to the prior
  std::size_t sanitized_params = 0;    // M-step params replaced (non-finite)
  std::size_t resumed_attempts = 0;    // attempts replayed from checkpoint
  // Sources with neither claims nor exposed cells: their rates carry no
  // evidence and are pinned by shrinkage/keep-previous (reported, not an
  // error).
  std::size_t degenerate_sources = 0;
};

struct EmExtResult {
  EstimateResult estimate;
  ModelParams params;
  double log_likelihood = 0.0;
  // Data log-likelihood after every iteration of the winning run, for
  // monotonicity checks and convergence diagnostics.
  std::vector<double> likelihood_trace;
  // Aggregated over every attempt of the run (not just the winner).
  EmHealth health;
};

class EmExtEstimator : public Estimator {
 public:
  explicit EmExtEstimator(EmExtConfig config = {});

  std::string name() const override { return "EM-Ext"; }
  EstimateResult run(const Dataset& dataset,
                     std::uint64_t seed) const override;

  // Full-detail run exposing the learned parameters and likelihood trace.
  EmExtResult run_detailed(const Dataset& dataset,
                           std::uint64_t seed) const;

 private:
  EmExtConfig config_;
};

// The support-based initial posterior of the vote-prior init, over
// per-assertion support counts already gathered (indexed by assertion
// id): the tree-sum mean of the supports, then
// Z_j = support_j / (support_j + mean) clamped to [0.05, 0.95]; all 0.5
// when the mean is not positive. Consumes `support` and returns the
// posterior in its storage.
std::vector<double> vote_prior_from_support(std::vector<double> support);

}  // namespace ss
