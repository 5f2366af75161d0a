// Streaming (recursive) dependency-aware fact-finding.
//
// The paper's related work points at a recursive estimator for social
// data *streams* (Yao et al., IPSN'16): instead of re-running EM over
// the full history whenever new claims arrive, keep per-source
// sufficient statistics and fold each new batch in with an exponential
// forgetting factor. This module implements that extension on top of the
// EM-Ext model:
//
//   per batch b:
//     1. E-step on the batch's assertions under the current theta
//        (warm start — a handful of inner iterations suffice);
//     2. compute the batch's per-source sufficient statistics
//        (claim/exposure posterior masses split by D_ij);
//     3. decay the running statistics by `forgetting` and add the batch;
//     4. closed-form M-step from the running statistics.
//
// Sources persist across batches (same index space); assertions are
// batch-local, as in a sliding window over a live event.
//
// Batch-ordering contract. The estimator is a *recursive* filter: the
// decayed statistics after batch k are a function of the batches in the
// exact order they were folded in, so feeding batches out of order
// silently computes a different model. Callers on an unreliable
// transport (the src/sim/ storm harness, a network ingest) therefore
// tag each batch with the sequence number assigned at *emission* time
// and use the checked overload observe(batch, seq):
//
//   - seq == next_sequence(): the batch is folded in, next_sequence()
//     advances, result.accepted = true.
//   - seq <  next_sequence(): a stale duplicate (retry of a batch that
//     already arrived). Rejected without touching any state:
//     result.accepted = false, stale_batches() counts it, and the
//     returned beliefs are empty.
//   - seq >  next_sequence(): a gap — the caller failed to buffer a
//     delayed batch. That is a caller bug, not a transport condition,
//     and throws std::invalid_argument.
//
// The unchecked observe(batch) is shorthand for
// observe(batch, next_sequence()) and never rejects.
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

struct StreamingEmConfig {
  // Exponential forgetting factor in (0, 1]; 1 = never forget.
  double forgetting = 0.9;
  // Inner EM iterations per batch (warm-started).
  std::size_t iters_per_batch = 5;
  double clamp_eps = 1e-6;
  // Hierarchical Beta shrinkage in pseudo-claims (see EmExtConfig).
  double shrinkage = 8.0;
  // Bounds on the learned prior z (see EmExtConfig::z_floor).
  double z_floor = 0.05;
  // Pool for every pass of observe(): the first-batch bootstrap, the
  // per-source log-table build, the batch statistics of the active
  // sources, the MAP update + commit pass and the fused E-step;
  // nullptr = the process-global pool. Chunk boundaries depend only on
  // (count, grain) and the pooled-rate sums stay serial in source
  // order, so results are bit-identical across pool sizes — tests pin
  // 1-, 2- and 4-thread pools against each other to prove it.
  ThreadPool* pool = nullptr;
};

struct StreamingBatchResult {
  // False only for a stale duplicate rejected by the checked
  // observe(batch, seq) overload; the other fields are then empty.
  bool accepted = true;
  // Posterior truth probability per assertion of the batch.
  std::vector<double> belief;
  std::vector<double> log_odds;
  double log_likelihood = 0.0;
  // Fault-tolerance accounting (docs/MODEL.md §9); healthy batches have
  // stats_committed = true and sanitized_beliefs = 0. A batch whose
  // E-step went non-finite is not folded into the running statistics —
  // a poisoned posterior must not contaminate the decayed history — and
  // any non-finite final belief comes back as the neutral 0.5 (log-odds
  // 0) instead of NaN.
  bool stats_committed = true;
  std::size_t sanitized_beliefs = 0;
};

class StreamingEmExt {
 public:
  // `sources` fixes the source universe for the stream's lifetime.
  StreamingEmExt(std::size_t sources, StreamingEmConfig config = {});

  // Folds one batch into the model and returns its posteriors. The
  // batch dataset must have exactly `sources()` sources; its assertion
  // space is independent of previous batches. Throws on shape mismatch.
  StreamingBatchResult observe(const Dataset& batch);

  // Sequence-checked variant for unreliable transports; see the
  // batch-ordering contract at the top of this header.
  StreamingBatchResult observe(const Dataset& batch, std::uint64_t seq);

  // Sequence number the next accepted batch must carry.
  std::uint64_t next_sequence() const { return next_sequence_; }
  // Stale duplicates rejected by the checked overload.
  std::size_t stale_batches() const { return stale_batches_; }

  // Serializes / restores the full mutable state (params, counters,
  // running statistics) bit-exactly via the checkpoint binary codec.
  // load_state throws std::runtime_error when the serialized source
  // universe disagrees with this instance's. Config is not serialized:
  // the resuming caller must construct with the same config, as with
  // (seed, config)-keyed checkpoints elsewhere.
  void save_state(BinWriter& writer) const;
  void load_state(BinReader& reader);

  const ModelParams& params() const { return params_; }
  std::size_t source_count() const { return stats_claim_indep_z_.size(); }
  std::size_t batches_seen() const { return batches_; }
  // Batches whose statistics were withheld because an E-step produced a
  // non-finite posterior (see StreamingBatchResult::stats_committed).
  std::size_t skipped_batches() const { return skipped_batches_; }

 private:
  StreamingEmConfig config_;
  ModelParams params_;
  std::size_t batches_ = 0;
  std::size_t skipped_batches_ = 0;
  std::size_t stale_batches_ = 0;
  std::uint64_t next_sequence_ = 0;
  // Running (decayed) sufficient statistics per source.
  std::vector<double> stats_claim_indep_z_;
  std::vector<double> stats_claim_indep_y_;
  std::vector<double> stats_claim_dep_z_;
  std::vector<double> stats_claim_dep_y_;
  std::vector<double> stats_denom_a_;
  std::vector<double> stats_denom_b_;
  std::vector<double> stats_denom_f_;
  std::vector<double> stats_denom_g_;
  double stats_z_num_ = 0.0;
  double stats_z_den_ = 0.0;
  // Batch-local scratch reused across observe() calls and inner
  // iterations. `table_` is rebound to each batch (its source-sized
  // buffers are allocated once per stream) and is never read between
  // observe() calls. `posterior_` adapts to each batch's assertion count
  // in place. `batch_stats_` holds the batch's statistics in the packed
  // M-step layout, one row per source of the fixed universe; only the
  // rows of `active_` — the sources with a claim or an exposure in the
  // batch — are gathered, and every other row is all-zero, which
  // derives exactly the statistics a silent source has (see
  // observe()). The previous batch's active rows are re-zeroed before
  // the next batch gathers, however that batch ended.
  std::optional<LikelihoodTable> table_;
  std::vector<double> posterior_;
  std::vector<em_detail::SourceMStatsPacked> batch_stats_;
  std::vector<std::uint32_t> active_;
};

}  // namespace ss
