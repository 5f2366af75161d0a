#include "core/em_ext.h"

#include <algorithm>
#include <vector>

#include "core/em_driver.h"
#include "core/em_mstep.h"
#include "core/likelihood.h"
#include "core/posterior.h"
#include "math/kernels.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

// Sources per parallel chunk of the M-step statistics pass. Fixed so
// slot writes are identical for any worker count.
constexpr std::size_t kSourceGrain = 256;

std::vector<std::uint32_t> ranking_of(const std::vector<double>& belief) {
  std::vector<std::uint32_t> order(belief.size());
  for (std::size_t j = 0; j < belief.size(); ++j) {
    order[j] = static_cast<std::uint32_t>(j);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return belief[x] > belief[y];
                   });
  return order;
}

// The flat (single global CSR) engine: LikelihoodTable + fused_e_step
// for the E-step, ClaimPartition gathers + the shared serial tail for
// the M-step. The em_detail::run_em_driver template supplies the outer
// loop (init, warm-up, retries, restarts, checkpointing).
class FlatEmEngine {
 public:
  FlatEmEngine(const Dataset& dataset, const EmExtConfig& config,
               ThreadPool* pool)
      : dataset_(dataset), config_(config), pool_(pool) {}

  struct Scratch {
    LikelihoodTable table;
    EStepResult e;
    std::vector<double> column_ll;
    std::vector<em_detail::SourceMStatsPacked> mstats;
  };

  std::size_t source_count() const { return dataset_.source_count(); }
  std::size_t assertion_count() const {
    return dataset_.assertion_count();
  }
  std::uint64_t claim_count() const {
    return static_cast<std::uint64_t>(dataset_.claims.claim_count());
  }
  ThreadPool* pool() const { return pool_; }

  Scratch make_scratch() const {
    return Scratch{LikelihoodTable(dataset_), EStepResult{}, {}, {}};
  }

  void e_step(const ModelParams& params, Scratch& s) const {
    s.table.set_params(params, pool_);
    fused_e_step(s.table, pool_, s.e, s.column_ll);
  }

  // Closed-form M-step (Eq. 10-14) given the current posterior,
  // applied to `params` in place. The per-source statistics fill runs
  // in parallel source chunks (each source owns its slot, and every
  // stats field is written, so no pre-zeroing pass is needed); the
  // pooled reduction and the fused update/sanitize/tie/delta pass run
  // in em_detail::finalize_m_step_fused — tree-shaped and chunked, so
  // the result is bit-identical for any worker count. Scratch's stats
  // vector is reused across EM iterations (a fresh vector here would
  // churn the heap every M-step).
  void m_step(const std::vector<double>& posterior, ModelParams& params,
              bool tie_fg, Scratch& s,
              em_detail::MStepOutcome& out) const {
    std::size_t n = dataset_.source_count();
    std::size_t m = dataset_.assertion_count();
    const ClaimPartition& part = dataset_.partition();
    double total_z =
        kernels::tree_sum(pool_, posterior.data(), posterior.size());

    std::vector<em_detail::SourceMStatsPacked>& stats = s.mstats;
    stats.resize(n);
    auto fill = [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        em_detail::SourceMStatsPacked& st = stats[i];
        // Sum of Z_j over exposed cells of i.
        double exposed_z = kernels::gather_sum(
            dataset_.dependency.exposed_assertions(i), posterior.data());
        double exposed_count = static_cast<double>(
            dataset_.dependency.exposed_assertions(i).size());
        // The partition's split claim lists are ascending subsequences
        // of claims_of(i), so each accumulator sees the same addition
        // order as the branch-per-claim loop they replace.
        kernels::MassPair dep = kernels::gather_mass(
            part.dependent_claims(i), posterior.data());
        kernels::MassPair indep = kernels::gather_mass(
            part.independent_claims(i), posterior.data());
        st.claim_dep_z = dep.z;
        st.claim_dep_y = dep.y;
        st.claim_indep_z = indep.z;
        st.claim_indep_y = indep.y;
        // Packed exposure pair; the update denominators are derived at
        // consumption time with the identical fl-op order (see
        // SourceMStatsPacked in em_mstep.h).
        st.exposed_z = exposed_z;
        st.exposed_count = exposed_count;
      }
    };
    if (pool_ != nullptr && pool_->size() > 1 && n > kSourceGrain) {
      pool_->parallel_for_chunks(n, kSourceGrain, fill);
    } else {
      fill(0, 0, n);
    }
    em_detail::finalize_m_step_fused(stats, total_z, m, params,
                                     config_.clamp_eps, config_.shrinkage,
                                     config_.z_floor, tie_fg, pool_, out);
  }

  std::vector<double> vote_prior(bool independent_only) const {
    return vote_prior_posterior(dataset_, independent_only);
  }

  bool degenerate_source(std::size_t i) const {
    return dataset_.claims.claims_of(i).empty() &&
           dataset_.dependency.exposed_assertions(i).empty();
  }

 private:
  const Dataset& dataset_;
  const EmExtConfig& config_;
  ThreadPool* pool_;
};

}  // namespace

std::vector<std::uint32_t> EstimateResult::ranking() const {
  return ranking_of(log_odds.size() == belief.size() && !belief.empty()
                        ? log_odds
                        : belief);
}

std::vector<double> vote_prior_posterior(const Dataset& dataset,
                                         bool independent_only) {
  std::size_t m = dataset.assertion_count();
  std::vector<double> posterior(m, 0.5);
  if (m == 0) return posterior;
  std::vector<double> support(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    support[j] = static_cast<double>(
        independent_only ? dataset.partition().independent_claimants(j).size()
                         : dataset.claims.support(j));
  }
  // Tree-shaped like every other global fold (bit-exact no-op here:
  // support counts are integer-valued doubles, so the tree's regrouped
  // partial sums are exact at any shape).
  double mean_support = kernels::tree_sum(nullptr, support.data(), m);
  mean_support /= static_cast<double>(m);
  if (mean_support <= 0.0) return posterior;
  for (std::size_t j = 0; j < m; ++j) {
    posterior[j] =
        std::clamp(support[j] / (support[j] + mean_support), 0.05, 0.95);
  }
  return posterior;
}

EmExtEstimator::EmExtEstimator(EmExtConfig config)
    : config_(std::move(config)) {}

EstimateResult EmExtEstimator::run(const Dataset& dataset,
                                   std::uint64_t seed) const {
  return run_detailed(dataset, seed).estimate;
}

EmExtResult EmExtEstimator::run_detailed(const Dataset& dataset,
                                         std::uint64_t seed) const {
  dataset.validate();
  ThreadPool* pool =
      config_.pool != nullptr ? config_.pool : &global_pool();
  FlatEmEngine engine(dataset, config_, pool);
  return em_detail::run_em_driver(engine, config_, seed);
}

}  // namespace ss
