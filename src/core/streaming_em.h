// Streaming (recursive) dependency-aware fact-finding.
//
// The paper's related work points at a recursive estimator for social
// data *streams* (Yao et al., IPSN'16): instead of re-running EM over
// the full history whenever new claims arrive, keep per-source
// sufficient statistics and fold each new batch in with an exponential
// forgetting factor. This module implements that extension on top of the
// EM-Ext model:
//
//   per batch b, each inner iteration (warm-started from theta):
//     1. E-step on the batch's assertions under the staged theta;
//     2. blend: lambda * history + the batch's per-source statistics,
//        in the engine's packed layout (em_detail::SourceMStatsPacked),
//        and lambda * totals + the batch's posterior mass and count;
//     3. the engine's closed-form M-step tail on the blended rows
//        (em_detail::finalize_m_step_fused).
//   then a final E-step, and only then the commit (see below).
//
// Sources persist across batches (same index space); assertions are
// batch-local, as in a sliding window over a live event.
//
// Transactional batches. observe() computes into scratch: theta, the
// blended rows and totals, and the counters are staged, and they are
// committed together only after the final E-step returns. A batch that
// throws — a shape mismatch, an exception from a pool task — leaves
// every piece of state (and the save_state() bytes) exactly as it
// was, so the caller can retry it.
//
// The estimator is a *recursive* filter: the decayed statistics after
// batch k depend on the order the batches were folded in. Delivery
// order is the caller's job; over an unreliable transport, the
// simulated process (sim/process.h) buffers early batches, drops stale
// ones and feeds the rest in sequence.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/em_mstep.h"
#include "core/estimator.h"
#include "core/likelihood.h"
#include "core/params.h"

namespace ss {

class BinReader;
class BinWriter;
class ThreadPool;

// The stream's M-step clamps, shrinks and floors z exactly as EM-Ext
// does (kEmClampEps, kEmZFloor and EmExtConfig's default shrinkage),
// and each batch runs five warm-started inner iterations.
struct StreamingEmConfig {
  // Exponential forgetting factor in (0, 1]; 1 = never forget.
  double forgetting = 0.9;
  // Pool for every pass of observe(): the first-batch bootstrap, the
  // per-source log-table build, the decay of the history, the batch
  // statistics of the active sources, the M-step tail (pooled tree and
  // finalize pass) and the fused E-step; nullptr = the process-global
  // pool. Chunk boundaries and the tree shape depend only on the
  // counts, so results are bit-identical across pool sizes — tests pin
  // 1- and 4-thread pools against each other to prove it.
  ThreadPool* pool = nullptr;
};

struct StreamingBatchResult {
  // Posterior truth probability per assertion of the batch.
  std::vector<double> belief;
  std::vector<double> log_odds;
  double log_likelihood = 0.0;
  // Fault-tolerance accounting (docs/MODEL.md §9); healthy batches have
  // stats_committed = true and sanitized_beliefs = 0. A batch whose
  // E-step went non-finite is not folded into the decayed history — a
  // poisoned posterior must not contaminate it — though theta from its
  // clean inner iterations commits; any non-finite final belief comes
  // back as the neutral 0.5 (log-odds 0) instead of NaN.
  bool stats_committed = true;
  std::size_t sanitized_beliefs = 0;
};

class StreamingEmExt {
 public:
  // `sources` fixes the source universe for the stream's lifetime.
  StreamingEmExt(std::size_t sources, StreamingEmConfig config = {});

  // Folds one batch into the model and returns its posteriors. The
  // batch dataset must have exactly `source_count()` sources; its
  // assertion space is independent of previous batches. Throws on
  // shape mismatch; a batch that throws changes no state.
  StreamingBatchResult observe(const Dataset& batch);

  // Serializes / restores the full mutable state (params, counters,
  // decayed history and totals) bit-exactly via the checkpoint binary
  // codec. load_state throws std::runtime_error when the serialized
  // source universe disagrees with this instance's. Config is not
  // serialized: the resuming caller must construct with the same
  // config, as with (seed, config)-keyed checkpoints elsewhere.
  void save_state(BinWriter& writer) const;
  void load_state(BinReader& reader);

  const ModelParams& params() const { return params_; }
  std::size_t source_count() const { return history_.size(); }
  std::size_t batches_seen() const { return batches_; }
  // Batches whose statistics were withheld because an E-step produced a
  // non-finite posterior (see StreamingBatchResult::stats_committed).
  std::size_t skipped_batches() const { return skipped_batches_; }

 private:
  StreamingEmConfig config_;
  ModelParams params_;
  std::size_t batches_ = 0;
  std::size_t skipped_batches_ = 0;
  // Decayed sufficient statistics: one packed row per source (the
  // lambda-decayed sums of its four claim masses, its exposed posterior
  // mass and its exposed-cell count) and the decayed posterior mass
  // and assertion count of all batches. Every decayed M-step
  // denominator derives from them as in em_detail::SourceMStatsPacked.
  std::vector<em_detail::SourceMStatsPacked> history_;
  double total_z_ = 0.0;
  double total_m_ = 0.0;
  // Batch-local scratch reused across observe() calls and inner
  // iterations, never read between calls. `table_` is rebound to each
  // batch (its source-sized buffers are allocated once per stream);
  // `posterior_` adapts to each batch's assertion count in place.
  // `staged_` (theta) and `blended_` (lambda * history plus the batch)
  // hold what the batch will commit; a successful batch swaps them
  // with `params_` and `history_`. `active_` lists the sources with a
  // claim or an exposure in the batch.
  std::optional<LikelihoodTable> table_;
  std::vector<double> posterior_;
  ModelParams staged_;
  std::vector<em_detail::SourceMStatsPacked> blended_;
  std::vector<std::uint32_t> active_;
};

}  // namespace ss
