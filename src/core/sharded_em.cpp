#include "core/sharded_em.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "core/em_driver.h"
#include "core/em_mstep.h"
#include "core/posterior.h"
#include "math/kernels.h"
#include "math/logprob.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

// Same fixed grains as the flat engine (posterior.cpp / em_ext.cpp):
// work-unit boundaries depend only on the shard layout, never on the
// worker count, so slot writes are identical for any SS_THREADS value.
constexpr std::size_t kColumnGrain = 256;
constexpr std::size_t kSourceGrain = 256;

// One fixed block of one shard's columns (or sources). The flat list
// of units — not shard-per-task — is what keeps the pool busy when one
// giant component swallows most of the data: an oversized shard simply
// contributes many units. Each unit carries its incidence mass (claim
// + exposure entries it touches), the LPT scheduling weight for
// parallel_tasks — weights steer placement only, never results.
struct WorkUnit {
  std::uint32_t shard;
  std::uint32_t begin;  // position range within the shard
  std::uint32_t end;
};

struct UnitPlan {
  std::vector<WorkUnit> units;
  std::vector<double> weights;  // parallel to `units`
};

UnitPlan chunk_units(const ShardedDataset& sharded, bool columns,
                     std::size_t grain) {
  UnitPlan plan;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const DatasetShard& sh = sharded.shard(s);
    std::size_t count =
        columns ? sh.assertion_ids().size() : sh.source_ids().size();
    for (std::size_t begin = 0; begin < count; begin += grain) {
      std::size_t end = std::min(begin + grain, count);
      double mass = 0.0;
      for (std::size_t p = begin; p < end; ++p) {
        if (columns) {
          mass += static_cast<double>(sh.claimants(p).size() +
                                      sh.exposed_sources(p).size());
        } else {
          mass += static_cast<double>(sh.dependent_claims(p).size() +
                                      sh.independent_claims(p).size() +
                                      sh.exposed_assertions(p).size());
        }
      }
      plan.units.push_back({static_cast<std::uint32_t>(s),
                            static_cast<std::uint32_t>(begin),
                            static_cast<std::uint32_t>(end)});
      plan.weights.push_back(mass);
    }
  }
  return plan;
}

// The shard-parallel engine behind em_detail::run_em_driver. Gathers
// run over per-shard CSR slices; values are read from (and results
// scattered into) global tables, so every column and every source
// computes exactly what the flat engine computes for it.
class ShardedEmEngine {
 public:
  ShardedEmEngine(const ShardedDataset& sharded, const EmExtConfig& config,
                  ThreadPool* pool)
      : sharded_(sharded),
        config_(config),
        pool_(pool),
        column_plan_(chunk_units(sharded, /*columns=*/true, kColumnGrain)),
        source_plan_(
            chunk_units(sharded, /*columns=*/false, kSourceGrain)) {}

  struct Scratch {
    kernels::ExtLogTable table;
    EStepResult e;
    std::vector<double> column_ll;
    std::vector<em_detail::SourceMStatsPacked> mstats;
    // Per-unit wall-clock seconds from the last parallel_tasks call;
    // only filled when EmExtConfig::shard_time_accum is set.
    std::vector<double> unit_seconds;
  };

  std::size_t source_count() const { return sharded_.source_count(); }
  std::size_t assertion_count() const {
    return sharded_.assertion_count();
  }
  std::uint64_t claim_count() const {
    return static_cast<std::uint64_t>(sharded_.claim_count());
  }
  ThreadPool* pool() const { return pool_; }

  Scratch make_scratch() const { return Scratch{}; }

  // Fused E-step, sharded. Same two-pass shape as posterior.cpp's
  // fused_e_step: a gather pass parks the prior-shifted column
  // log-likelihoods la/lb in the output buffers (slot-addressed by
  // global assertion id), then the elementwise finalize_columns
  // epilogue runs over contiguous global ranges — chunking-invariant —
  // and the data log-likelihood sums serially in assertion order. Per
  // column the gathers are gather_add + gather_add_select in shard
  // list order, which is the flat scalar column walk exactly
  // (gather_add2 interleaves two independent chains without reordering
  // either, so pairing is not load-bearing for the result).
  void e_step(const ModelParams& params, Scratch& s) const {
    const std::size_t n = sharded_.source_count();
    const std::size_t m = sharded_.assertion_count();
    if (params.source.size() != n) {
      throw std::invalid_argument(
          "ShardedEmEngine: params/source count mismatch");
    }
    // SourceParams is {a, b, f, g} as four contiguous doubles (the
    // static_assert lives in em_mstep.h's fused tail, same contract):
    // build_from_rows reads the params array directly and clamps each
    // rate in flight — bit-identical to the historical clamp_prob
    // lambda build, minus its 4n-double scratch pack — and builds the
    // rows in fixed source chunks on the pool (same bits for any pool).
    s.table.build_from_rows(
        n, clamp_prob(params.z),
        reinterpret_cast<const double*>(params.source.data()), pool_);
    s.e.posterior.resize(m);
    s.e.log_odds.resize(m);
    s.column_ll.resize(m);

    const double log_z = s.table.log_z();
    const double log_1mz = s.table.log_1mz();
    double* la_buf = s.e.log_odds.data();
    double* lb_buf = s.column_ll.data();
    double* post = s.e.posterior.data();
    auto gather_unit = [&](const WorkUnit& u) {
      const DatasetShard& sh = sharded_.shard(u.shard);
      std::span<const std::uint32_t> ids = sh.assertion_ids();
      for (std::size_t c = u.begin; c < u.end; ++c) {
        kernels::LogPair acc =
            kernels::gather_add(s.table.base(), sh.exposed_sources(c),
                                s.table.exposed_silent());
        acc = kernels::gather_add_select(
            acc, sh.claimants(c), sh.claimant_dependent(c),
            s.table.claim_indep(), s.table.claim_dep());
        std::uint32_t j = ids[c];
        la_buf[j] = acc.t + log_z;
        lb_buf[j] = acc.f + log_1mz;
      }
    };
    run_units(column_plan_, gather_unit, s);

    // Epilogue over global assertion ranges (sanctioned elementwise
    // aliasing: log_odds == la, column_ll == lb; see kernels.h).
    auto epilogue = [&](std::size_t, std::size_t begin, std::size_t end) {
      kernels::finalize_columns(la_buf + begin, lb_buf + begin,
                                end - begin, post + begin, la_buf + begin,
                                lb_buf + begin);
    };
    if (pool_ != nullptr && pool_->size() > 1 && m > kColumnGrain) {
      pool_->parallel_for_chunks(m, kColumnGrain, epilogue);
    } else {
      for (std::size_t begin = 0; begin < m; begin += kColumnGrain) {
        epilogue(0, begin, std::min(begin + kColumnGrain, m));
      }
    }
    // Canonical fixed-shape tree sum over the *global* column_ll array
    // (same reduction as the flat engine, independent of shard layout,
    // thread count and steal order).
    s.e.log_likelihood = kernels::tree_sum(pool_, s.column_ll.data(), m);
  }

  // Closed-form M-step, sharded, applied to `params` in place:
  // per-source statistics fill in shard-parallel units (each source
  // owns its global slot, every field written; the shard's row lists
  // are elementwise equal to the flat engine's exposed_assertions /
  // dependent_claims / independent_claims views, so each gather
  // performs the same additions in the same order), then the shared
  // fused tail in em_detail::finalize_m_step_fused — tree-pooled over
  // the same global stats array the flat engine fills, so both engines
  // reduce identical values through an identical shape.
  void m_step(const std::vector<double>& posterior, ModelParams& params,
              bool tie_fg, Scratch& s,
              em_detail::MStepOutcome& out) const {
    const std::size_t n = sharded_.source_count();
    const std::size_t m = sharded_.assertion_count();
    double total_z =
        kernels::tree_sum(pool_, posterior.data(), posterior.size());

    std::vector<em_detail::SourceMStatsPacked>& stats = s.mstats;
    stats.resize(n);
    auto fill_unit = [&](const WorkUnit& u) {
      const DatasetShard& sh = sharded_.shard(u.shard);
      std::span<const std::uint32_t> ids = sh.source_ids();
      for (std::size_t p = u.begin; p < u.end; ++p) {
        em_detail::SourceMStatsPacked& st = stats[ids[p]];
        double exposed_z = kernels::gather_sum(sh.exposed_assertions(p),
                                               posterior.data());
        double exposed_count =
            static_cast<double>(sh.exposed_assertions(p).size());
        kernels::MassPair dep =
            kernels::gather_mass(sh.dependent_claims(p), posterior.data());
        kernels::MassPair indep = kernels::gather_mass(
            sh.independent_claims(p), posterior.data());
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
    run_units(source_plan_, fill_unit, s);
    em_detail::finalize_m_step_fused(stats, total_z, m, params,
                                     config_.clamp_eps, config_.shrinkage,
                                     config_.z_floor, tie_fg, pool_, out);
  }

  // Support-based initial posterior: per-column support counts scatter
  // from the shards into a global array, then the vote_prior_posterior
  // arithmetic runs verbatim in global assertion order (integer counts
  // produce the exact same doubles as the flat path).
  std::vector<double> vote_prior(bool independent_only) const {
    const std::size_t m = sharded_.assertion_count();
    std::vector<double> posterior(m, 0.5);
    if (m == 0) return posterior;
    std::vector<double> support(m, 0.0);
    for (std::size_t sidx = 0; sidx < sharded_.shard_count(); ++sidx) {
      const DatasetShard& sh = sharded_.shard(sidx);
      std::span<const std::uint32_t> ids = sh.assertion_ids();
      for (std::size_t c = 0; c < ids.size(); ++c) {
        std::size_t count;
        if (independent_only) {
          std::span<const char> flags = sh.claimant_dependent(c);
          count = static_cast<std::size_t>(
              std::count(flags.begin(), flags.end(), char{0}));
        } else {
          count = sh.claimants(c).size();
        }
        support[ids[c]] = static_cast<double>(count);
      }
    }
    // Same tree shape as the flat vote_prior_posterior fold (exact for
    // these integer-valued supports, so flat == sharded bit for bit).
    double mean_support = kernels::tree_sum(nullptr, support.data(), m);
    mean_support /= static_cast<double>(m);
    if (mean_support <= 0.0) return posterior;
    for (std::size_t j = 0; j < m; ++j) {
      posterior[j] = std::clamp(
          support[j] / (support[j] + mean_support), 0.05, 0.95);
    }
    return posterior;
  }

  bool degenerate_source(std::size_t i) const {
    const DatasetShard& sh = sharded_.shard(sharded_.shard_of_source(i));
    std::size_t p = sharded_.position_of_source(i);
    return sh.dependent_claims(p).empty() &&
           sh.independent_claims(p).empty() &&
           sh.exposed_assertions(p).empty();
  }

 private:
  // Runs fn over every unit through the pool's LPT work-stealing
  // scheduler, weighted by incidence mass, so the giant-component
  // shard's units start first and an idle worker steals from whoever
  // has the longest backlog — placement only; every unit writes the
  // same global slots it would serially. With timing requested
  // (EmExtConfig::shard_time_accum), per-unit seconds aggregate into
  // per-shard totals serially after the parallel region (no clock
  // reads inside core code — the pool takes them; lint rule R8).
  template <typename Fn>
  void run_units(const UnitPlan& plan, const Fn& fn, Scratch& s) const {
    bool timed = config_.shard_time_accum != nullptr;
    if (pool_ != nullptr && (pool_->size() > 1 || timed) &&
        plan.units.size() > 1) {
      pool_->parallel_tasks(
          plan.weights,
          [&](std::size_t u) { fn(plan.units[u]); },
          timed ? &s.unit_seconds : nullptr);
    } else {
      for (const WorkUnit& u : plan.units) fn(u);
      return;
    }
    if (timed) {
      std::vector<double>& acc = *config_.shard_time_accum;
      if (acc.size() != sharded_.shard_count()) {
        acc.assign(sharded_.shard_count(), 0.0);
      }
      for (std::size_t u = 0; u < plan.units.size(); ++u) {
        acc[plan.units[u].shard] += s.unit_seconds[u];
      }
    }
  }

  const ShardedDataset& sharded_;
  const EmExtConfig& config_;
  ThreadPool* pool_;
  UnitPlan column_plan_;
  UnitPlan source_plan_;
};

}  // namespace

ShardedEmEstimator::ShardedEmEstimator(EmExtConfig config)
    : config_(std::move(config)) {}

EstimateResult ShardedEmEstimator::run(const ShardedDataset& sharded,
                                       std::uint64_t seed) const {
  return run_detailed(sharded, seed).estimate;
}

EmExtResult ShardedEmEstimator::run_detailed(const ShardedDataset& sharded,
                                             std::uint64_t seed) const {
  ThreadPool* pool =
      config_.pool != nullptr ? config_.pool : &global_pool();
  ShardedEmEngine engine(sharded, config_, pool);
  return em_detail::run_em_driver(engine, config_, seed);
}

}  // namespace ss
