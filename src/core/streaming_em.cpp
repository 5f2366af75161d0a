#include "core/streaming_em.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/em_ext.h"
#include "core/likelihood.h"
#include "core/posterior.h"
#include "math/kernels.h"
#include "math/logprob.h"
#include "util/checkpoint.h"
#include "util/fault_inject.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

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
  stats_claim_indep_z_.assign(sources, 0.0);
  stats_claim_indep_y_.assign(sources, 0.0);
  stats_claim_dep_z_.assign(sources, 0.0);
  stats_claim_dep_y_.assign(sources, 0.0);
  stats_denom_a_.assign(sources, 0.0);
  stats_denom_b_.assign(sources, 0.0);
  stats_denom_f_.assign(sources, 0.0);
  stats_denom_g_.assign(sources, 0.0);
  batch_stats_.assign(sources, em_detail::SourceMStatsPacked{});
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
  ++next_sequence_;
  std::size_t n = source_count();
  if (batch.source_count() != n) {
    throw std::invalid_argument(
        "StreamingEmExt::observe: batch source count mismatch");
  }
  std::size_t m = batch.assertion_count();
  ThreadPool* pool = config_.pool != nullptr ? config_.pool : &global_pool();

  // On the very first batch, bootstrap theta from the batch's vote
  // prior (independent support) exactly like the offline estimator.
  if (batches_ == 0) {
    EmExtConfig boot;
    boot.shrinkage = config_.shrinkage;
    boot.clamp_eps = config_.clamp_eps;
    boot.max_iters = 1;
    boot.pool = config_.pool;
    params_ = EmExtEstimator(boot).run_detailed(batch, 1).params;
  }

  // Active sources: a claim or an exposure in this batch, collected
  // from the columns in ascending source order. Only they gather
  // statistics. A silent source's gathers would all be empty sums, so
  // its packed row stays zero, from which blended() below derives its
  // exact statistics: zero numerators and the denominators
  // total_z - 0.0 and total_y - (0.0 - 0.0). First re-zero the previous
  // batch's rows.
  std::vector<em_detail::SourceMStatsPacked>& stats = batch_stats_;
  for (std::uint32_t i : active_) stats[i] = {};
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
  std::vector<double>& posterior = posterior_;
  posterior.assign(m, 0.5);
  bool poisoned = false;
  for (std::size_t inner = 0; inner < config_.iters_per_batch; ++inner) {
    // E-step on this batch under the current theta.
    table.set_params(params_, pool);
    all_posteriors(table, posterior);
    fault::maybe_corrupt_posterior(posterior);
    if (!all_finite(posterior)) {
      // Poisoned E-step: stop refining and withhold this batch's
      // statistics — a NaN folded into the decayed history would
      // corrupt every later batch.
      poisoned = true;
      break;
    }

    // Batch sufficient statistics of the active sources; each source
    // owns its row. The split claim lists replace the per-claim
    // dependency search, and each accumulator keeps its addition order.
    double total_z = 0.0;
    for (double p : posterior) total_z += p;
    double total_y = static_cast<double>(m) - total_z;
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
            stats[i] = {indep.z,
                        indep.y,
                        dep.z,
                        dep.y,
                        kernels::gather_sum(exposed, posterior.data()),
                        static_cast<double>(exposed.size())};
          }
        });

    // Recursive update: decay history, add the batch. Only the final
    // inner iteration commits to the running statistics; earlier inner
    // iterations refine theta against a blended view so warm starts do
    // not double-count the batch. blended(i) is source i's eight
    // running statistics {num_a, den_a, num_b, den_b, num_f, den_f,
    // num_g, den_g} after the batch, with the denominators derived from
    // the packed exposure pair as in em_detail::SourceMStatsPacked.
    double lambda = config_.forgetting;
    auto blended = [&](std::size_t i) {
      const em_detail::SourceMStatsPacked& b = stats[i];
      const double t1 = b.exposed_count - b.exposed_z;
      return std::array<double, 8>{
          lambda * stats_claim_indep_z_[i] + b.claim_indep_z,
          lambda * stats_denom_a_[i] + (total_z - b.exposed_z),
          lambda * stats_claim_indep_y_[i] + b.claim_indep_y,
          lambda * stats_denom_b_[i] + (total_y - t1),
          lambda * stats_claim_dep_z_[i] + b.claim_dep_z,
          lambda * stats_denom_f_[i] + b.exposed_z,
          lambda * stats_claim_dep_y_[i] + b.claim_dep_y,
          lambda * stats_denom_g_[i] + t1};
    };

    // Pooled rates for shrinkage: a serial sum in source order. Its
    // shape is part of the stream's bits (every later batch reads the
    // rates it anchors), so it does not move onto the pool.
    std::array<double, 8> pooled{};
    for (std::size_t i = 0; i < n; ++i) {
      std::array<double, 8> v = blended(i);
      for (std::size_t k = 0; k < 8; ++k) pooled[k] += v[k];
    }
    double mu[4];
    double cells[4];
    for (std::size_t r = 0; r < 4; ++r) {
      double num = pooled[2 * r];
      double den = pooled[2 * r + 1];
      mu[r] = den > 0.0 ? num / den : 0.5;
      cells[r] = config_.shrinkage > 0.0
                     ? config_.shrinkage / std::max(mu[r], 1e-9)
                     : 0.0;
    }

    // MAP update, fused with the commit on the final inner iteration:
    // one chunked pass in which each source writes only its own
    // parameters and running statistics.
    const bool commit = inner + 1 == config_.iters_per_batch;
    auto map_rate = [&](double num, double den, std::size_t r,
                        double& out) {
      double d = den + cells[r];
      if (d > 0.0) {
        out = clamp_prob((num + cells[r] * mu[r]) / d, config_.clamp_eps);
      }
    };
    kernels::for_each_chunk(
        pool, n, kernels::kSourceChunk,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            std::array<double, 8> v = blended(i);
            SourceParams& p = params_.source[i];
            map_rate(v[0], v[1], 0, p.a);
            map_rate(v[2], v[3], 1, p.b);
            map_rate(v[4], v[5], 2, p.f);
            map_rate(v[6], v[7], 3, p.g);
            if (commit) {
              stats_claim_indep_z_[i] = v[0];
              stats_denom_a_[i] = v[1];
              stats_claim_indep_y_[i] = v[2];
              stats_denom_b_[i] = v[3];
              stats_claim_dep_z_[i] = v[4];
              stats_denom_f_[i] = v[5];
              stats_claim_dep_y_[i] = v[6];
              stats_denom_g_[i] = v[7];
            }
          }
        });
    params_.z = clamp_prob(
        (lambda * stats_z_num_ + total_z) /
            (lambda * stats_z_den_ + static_cast<double>(m)),
        config_.clamp_eps);
    if (config_.z_floor > 0.0) {
      params_.z = std::clamp(params_.z, config_.z_floor,
                             1.0 - config_.z_floor);
    }
    if (commit) {
      stats_z_num_ = lambda * stats_z_num_ + total_z;
      stats_z_den_ = lambda * stats_z_den_ + static_cast<double>(m);
    }
  }
  if (poisoned) ++skipped_batches_;
  ++batches_;

  StreamingBatchResult result;
  result.stats_committed = !poisoned;
  // The result vectors are moved to the caller, so (unlike the scratch
  // above) there is nothing to reuse here.
  table.set_params(params_, pool);
  EStepResult e = fused_e_step(table, pool);
  fault::maybe_corrupt_posterior(e.posterior);
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
  std::size_t n = source_count();
  writer.u64(n);
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
  writer.vec_f64(stats_claim_indep_z_);
  writer.vec_f64(stats_claim_indep_y_);
  writer.vec_f64(stats_claim_dep_z_);
  writer.vec_f64(stats_claim_dep_y_);
  writer.vec_f64(stats_denom_a_);
  writer.vec_f64(stats_denom_b_);
  writer.vec_f64(stats_denom_f_);
  writer.vec_f64(stats_denom_g_);
  writer.f64(stats_z_num_);
  writer.f64(stats_z_den_);
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
  auto load_vec = [&](std::vector<double>& out, const char* what) {
    std::vector<double> v = reader.vec_f64();
    if (v.size() != n) {
      throw std::runtime_error(
          std::string("StreamingEmExt::load_state: ") + what +
          " length mismatch");
    }
    out = std::move(v);
  };
  load_vec(stats_claim_indep_z_, "stats_claim_indep_z");
  load_vec(stats_claim_indep_y_, "stats_claim_indep_y");
  load_vec(stats_claim_dep_z_, "stats_claim_dep_z");
  load_vec(stats_claim_dep_y_, "stats_claim_dep_y");
  load_vec(stats_denom_a_, "stats_denom_a");
  load_vec(stats_denom_b_, "stats_denom_b");
  load_vec(stats_denom_f_, "stats_denom_f");
  load_vec(stats_denom_g_, "stats_denom_g");
  stats_z_num_ = reader.f64();
  stats_z_den_ = reader.f64();
}

}  // namespace ss
