#include "core/streaming_em.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/em_ext.h"
#include "core/likelihood.h"
#include "core/posterior.h"
#include "math/kernels.h"
#include "util/checkpoint.h"
#include "util/fault_inject.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

// Inner EM iterations per batch, each warm-started from the last.
constexpr std::size_t kItersPerBatch = 5;

bool all_finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

StreamingEmExt::StreamingEmExt(std::size_t sources,
                               StreamingEmConfig config)
    : config_(config) {
  params_.source.assign(sources, SourceParams{});
  params_.z = 0.5;
  history_.assign(sources, em_detail::SourceMStatsPacked{});
}

StreamingBatchResult StreamingEmExt::observe(const Dataset& batch,
                                             std::uint64_t seq) {
  if (seq < next_sequence_) {
    // Stale duplicate from a retrying transport: already folded in, so
    // touching any state would double-count it.
    ++stale_batches_;
    StreamingBatchResult rejected;
    rejected.accepted = false;
    rejected.stats_committed = false;
    return rejected;
  }
  if (seq > next_sequence_) {
    throw std::invalid_argument(
        "StreamingEmExt::observe: batch sequence gap (got " +
        std::to_string(seq) + ", expected " +
        std::to_string(next_sequence_) +
        "); the caller must buffer delayed batches");
  }
  return observe(batch);
}

StreamingBatchResult StreamingEmExt::observe(const Dataset& batch) {
  batch.validate();
  const std::size_t n = source_count();
  if (batch.source_count() != n) {
    throw std::invalid_argument(
        "StreamingEmExt::observe: batch source count mismatch");
  }
  const std::size_t m = batch.assertion_count();
  ThreadPool* pool = config_.pool != nullptr ? config_.pool : &global_pool();

  // The M-step constants are EM-Ext's defaults.
  const EmExtConfig defaults;

  // Theta is staged like everything else the batch changes. On the very
  // first batch it is bootstrapped from the batch's vote prior
  // (independent support) exactly like the offline estimator.
  if (batches_ == 0) {
    EmExtConfig boot;
    boot.max_iters = 1;
    boot.pool = config_.pool;
    staged_ = EmExtEstimator(boot).run_detailed(batch, 1).params;
  } else {
    staged_ = params_;
  }

  // Active sources: a claim or an exposure in this batch, collected
  // from the columns in ascending source order. Only they gather
  // statistics; a silent source's batch statistics are all zero.
  active_.clear();
  for (std::size_t j = 0; j < m; ++j) {
    std::span<const std::uint32_t> claimants = batch.claims.claimants_of(j);
    std::span<const std::uint32_t> exposed =
        batch.dependency.exposed_sources(j);
    active_.insert(active_.end(), claimants.begin(), claimants.end());
    active_.insert(active_.end(), exposed.begin(), exposed.end());
  }
  std::sort(active_.begin(), active_.end());
  active_.erase(std::unique(active_.begin(), active_.end()), active_.end());

  // The active sources' claims split by D_ij, once per batch: active
  // source k's dependent claims are split[off[2k], off[2k+1]) and its
  // independent ones split[off[2k+1], off[2k+2]), each ascending.
  std::vector<std::uint32_t> split;
  std::vector<std::size_t> split_off{0};
  split_off.reserve(2 * active_.size() + 1);
  for (std::uint32_t i : active_) {
    for (bool want : {true, false}) {
      split_claims(batch.claims.claims_of(i),
                   batch.dependency.exposed_assertions(i),
                   [&](std::uint32_t j, bool dependent) {
                     if (dependent == want) split.push_back(j);
                   });
      split_off.push_back(split.size());
    }
  }
  auto split_list = [&](std::size_t at) {
    return std::span<const std::uint32_t>(split.data() + split_off[at],
                                          split_off[at + 1] - split_off[at]);
  };

  // One likelihood table per stream, rebound to this batch and rebuilt
  // in place each inner iteration.
  if (table_) {
    table_->rebind(batch);
  } else {
    table_.emplace(batch);
  }
  LikelihoodTable& table = *table_;

  // Decay the history once per batch: every blended row starts as
  // lambda * history, which is already the final row of a silent
  // source. Each inner iteration then rewrites the active sources' rows
  // as lambda * history + batch, so warm starts never double-count the
  // batch.
  const double lambda = config_.forgetting;
  blended_.resize(n);
  kernels::for_each_chunk(
      pool, n, kernels::kSourceChunk,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const em_detail::SourceMStatsPacked& h = history_[i];
          blended_[i] = {lambda * h.claim_indep_z, lambda * h.claim_indep_y,
                         lambda * h.claim_dep_z,   lambda * h.claim_dep_y,
                         lambda * h.exposed_z,     lambda * h.exposed_count};
        }
      });
  const double decayed_z = lambda * total_z_;
  const double blended_m = lambda * total_m_ + static_cast<double>(m);
  double blended_z = decayed_z;

  std::vector<double>& posterior = posterior_;
  posterior.assign(m, 0.5);
  bool poisoned = false;
  em_detail::MStepOutcome outcome;
  for (std::size_t inner = 0; inner < kItersPerBatch; ++inner) {
    // E-step on this batch under the staged theta.
    table.set_params(staged_, pool);
    all_posteriors(table, posterior);
    fault::maybe_corrupt_posterior(posterior);
    if (!all_finite(posterior)) {
      // Poisoned E-step: stop refining and withhold this batch's
      // statistics — a NaN folded into the decayed history would
      // corrupt every later batch.
      poisoned = true;
      break;
    }

    // The active sources' rows; each source owns its row. The split
    // claim lists replace the per-claim dependency search, and each
    // accumulator keeps its addition order.
    double batch_z = 0.0;
    for (double p : posterior) batch_z += p;
    blended_z = decayed_z + batch_z;
    kernels::for_each_chunk(
        pool, active_.size(), kernels::kSourceChunk,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            std::uint32_t i = active_[k];
            std::span<const std::uint32_t> exposed =
                batch.dependency.exposed_assertions(i);
            kernels::MassPair dep =
                kernels::gather_mass(split_list(2 * k), posterior.data());
            kernels::MassPair indep = kernels::gather_mass(
                split_list(2 * k + 1), posterior.data());
            const em_detail::SourceMStatsPacked& h = history_[i];
            blended_[i] = {
                lambda * h.claim_indep_z + indep.z,
                lambda * h.claim_indep_y + indep.y,
                lambda * h.claim_dep_z + dep.z,
                lambda * h.claim_dep_y + dep.y,
                lambda * h.exposed_z +
                    kernels::gather_sum(exposed, posterior.data()),
                lambda * h.exposed_count +
                    static_cast<double>(exposed.size())};
          }
        });

    // The engine's M-step on the blended statistics: every decayed
    // denominator derives from a row and the blended totals.
    em_detail::finalize_m_step_fused(blended_, blended_z, blended_m, staged_,
                                     defaults.clamp_eps, defaults.shrinkage,
                                     defaults.z_floor, /*tie_fg=*/false,
                                     pool, outcome);
  }

  // The final E-step, still under the staged theta.
  table.set_params(staged_, pool);
  EStepResult e = fused_e_step(table, pool);
  fault::maybe_corrupt_posterior(e.posterior);

  // Commit. Nothing above changed the stream's state and nothing below
  // throws, so a batch is folded in whole or not at all. A poisoned
  // batch commits theta from its clean inner iterations, but not its
  // statistics.
  std::swap(params_, staged_);
  if (!poisoned) {
    history_.swap(blended_);
    total_z_ = blended_z;
    total_m_ = blended_m;
  }
  if (poisoned) ++skipped_batches_;
  ++batches_;
  ++next_sequence_;

  StreamingBatchResult result;
  result.stats_committed = !poisoned;
  result.belief = std::move(e.posterior);
  result.log_odds = std::move(e.log_odds);
  result.log_likelihood = e.log_likelihood;
  // The caller owns these beliefs (ranking, dashboards): non-finite
  // entries come back neutral, never NaN.
  for (std::size_t j = 0; j < result.belief.size(); ++j) {
    if (!std::isfinite(result.belief[j]) ||
        !std::isfinite(result.log_odds[j])) {
      result.belief[j] = 0.5;
      result.log_odds[j] = 0.0;
      ++result.sanitized_beliefs;
    }
  }
  if (!std::isfinite(result.log_likelihood)) result.log_likelihood = 0.0;
  return result;
}

void StreamingEmExt::save_state(BinWriter& writer) const {
  writer.u64(source_count());
  writer.u64(batches_);
  writer.u64(skipped_batches_);
  writer.u64(stale_batches_);
  writer.u64(next_sequence_);
  writer.f64(params_.z);
  for (const SourceParams& s : params_.source) {
    writer.f64(s.a);
    writer.f64(s.b);
    writer.f64(s.f);
    writer.f64(s.g);
  }
  for (const em_detail::SourceMStatsPacked& h : history_) {
    writer.f64(h.claim_indep_z);
    writer.f64(h.claim_indep_y);
    writer.f64(h.claim_dep_z);
    writer.f64(h.claim_dep_y);
    writer.f64(h.exposed_z);
    writer.f64(h.exposed_count);
  }
  writer.f64(total_z_);
  writer.f64(total_m_);
}

void StreamingEmExt::load_state(BinReader& reader) {
  std::size_t n = source_count();
  std::uint64_t stored = reader.u64();
  if (stored != n) {
    throw std::runtime_error(
        "StreamingEmExt::load_state: source universe mismatch (state "
        "has " +
        std::to_string(stored) + " sources, instance has " +
        std::to_string(n) + ")");
  }
  batches_ = reader.u64();
  skipped_batches_ = reader.u64();
  stale_batches_ = reader.u64();
  next_sequence_ = reader.u64();
  params_.z = reader.f64();
  params_.source.assign(n, SourceParams{});
  for (SourceParams& s : params_.source) {
    s.a = reader.f64();
    s.b = reader.f64();
    s.f = reader.f64();
    s.g = reader.f64();
  }
  for (em_detail::SourceMStatsPacked& h : history_) {
    h.claim_indep_z = reader.f64();
    h.claim_indep_y = reader.f64();
    h.claim_dep_z = reader.f64();
    h.claim_dep_y = reader.f64();
    h.exposed_z = reader.f64();
    h.exposed_count = reader.f64();
  }
  total_z_ = reader.f64();
  total_m_ = reader.f64();
}

}  // namespace ss
